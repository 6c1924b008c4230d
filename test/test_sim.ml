(* Tests for the discrete-event engine, resources and the CPU model. *)

module Engine = Lightvm_sim.Engine
module Heap = Lightvm_sim.Heap
module Rng = Lightvm_sim.Rng
module Resource = Lightvm_sim.Resource
module Cpu = Lightvm_sim.Cpu

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

let check_time name expected actual =
  if not (feq expected actual) then
    Alcotest.failf "%s: expected %g, got %g" name expected actual

(* ------------------------------------------------------------------ *)
(* Heap *)

let test_heap_order () =
  let h = Heap.create "" in
  ignore (Heap.push h ~time:3.0 "c");
  ignore (Heap.push h ~time:1.0 "a");
  ignore (Heap.push h ~time:2.0 "b");
  let order = List.init 3 (fun _ -> Heap.pop h) in
  Alcotest.(check (list (option (pair (float 1e-9) string))))
    "pop order"
    [ Some (1.0, "a"); Some (2.0, "b"); Some (3.0, "c") ]
    order

let test_heap_fifo_ties () =
  let h = Heap.create "" in
  ignore (Heap.push h ~time:1.0 "first");
  ignore (Heap.push h ~time:1.0 "second");
  ignore (Heap.push h ~time:1.0 "third");
  let vals =
    List.init 3 (fun _ ->
        match Heap.pop h with Some (_, v) -> v | None -> "?")
  in
  Alcotest.(check (list string)) "insertion order on ties"
    [ "first"; "second"; "third" ] vals

let test_heap_cancel () =
  let h = Heap.create "" in
  let _a = Heap.push h ~time:1.0 "a" in
  let b = Heap.push h ~time:2.0 "b" in
  let _c = Heap.push h ~time:3.0 "c" in
  Heap.cancel h b;
  Alcotest.(check int) "live size" 2 (Heap.size h);
  let vals =
    List.init 2 (fun _ ->
        match Heap.pop h with Some (_, v) -> v | None -> "?")
  in
  Alcotest.(check (list string)) "cancelled skipped" [ "a"; "c" ] vals;
  Alcotest.(check bool) "empty" true (Heap.pop h = None)

let prop_heap_sorted =
  QCheck.Test.make ~name:"heap pops sorted" ~count:200
    QCheck.(list (float_bound_exclusive 1000.))
    (fun times ->
      let h = Heap.create 0. in
      List.iter (fun t -> ignore (Heap.push h ~time:t t)) times;
      let rec drain acc =
        match Heap.pop h with
        | None -> List.rev acc
        | Some (t, _) -> drain (t :: acc)
      in
      let popped = drain [] in
      popped = List.stable_sort compare times)

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_bounds () =
  let r = Rng.create 7L in
  for _ = 1 to 1000 do
    let x = Rng.int r 10 in
    if x < 0 || x >= 10 then Alcotest.failf "int out of bounds: %d" x;
    let f = Rng.float r 3.5 in
    if f < 0. || f >= 3.5 then Alcotest.failf "float out of bounds: %g" f
  done

let test_rng_exponential_mean () =
  let r = Rng.create 11L in
  let n = 20_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential r ~mean:2.0
  done;
  let mean = !sum /. float_of_int n in
  if Float.abs (mean -. 2.0) > 0.1 then
    Alcotest.failf "exponential mean off: %g" mean

(* ------------------------------------------------------------------ *)
(* Engine *)

let test_sleep_advances_clock () =
  let final =
    Engine.run (fun () ->
        check_time "start" 0.0 (Engine.now ());
        Engine.sleep 1.5;
        check_time "after sleep" 1.5 (Engine.now ());
        Engine.sleep 0.5;
        check_time "after second sleep" 2.0 (Engine.now ()))
  in
  check_time "final clock" 2.0 final

let test_spawn_interleaving () =
  let log = ref [] in
  let say s = log := s :: !log in
  ignore
    (Engine.run (fun () ->
         Engine.spawn (fun () ->
             Engine.sleep 1.0;
             say "b@1");
         Engine.spawn (fun () ->
             Engine.sleep 2.0;
             say "c@2");
         say "a@0";
         Engine.sleep 3.0;
         say "d@3"));
  Alcotest.(check (list string))
    "event order" [ "a@0"; "b@1"; "c@2"; "d@3" ] (List.rev !log)

let test_ivar_blocks () =
  let result = ref 0 in
  ignore
    (Engine.run (fun () ->
         let iv = Engine.Ivar.create () in
         Engine.spawn (fun () ->
             let v = Engine.Ivar.read iv in
             check_time "woken at fill time" 4.0 (Engine.now ());
             result := v);
         Engine.sleep 4.0;
         Engine.Ivar.fill iv 99));
  Alcotest.(check int) "value delivered" 99 !result

let test_ivar_double_fill () =
  ignore
    (Engine.run (fun () ->
         let iv = Engine.Ivar.create () in
         Engine.Ivar.fill iv 1;
         Alcotest.check_raises "second fill rejected"
           (Invalid_argument "Sim.Engine.Ivar.fill: already filled")
           (fun () -> Engine.Ivar.fill iv 2)))

let test_after_and_cancel () =
  let fired = ref [] in
  ignore
    (Engine.run (fun () ->
         let _t1 = Engine.after 1.0 (fun () -> fired := 1 :: !fired) in
         let t2 = Engine.after 2.0 (fun () -> fired := 2 :: !fired) in
         let _t3 = Engine.after 3.0 (fun () -> fired := 3 :: !fired) in
         Engine.cancel t2;
         Engine.sleep 5.0));
  Alcotest.(check (list int)) "only uncancelled fire" [ 1; 3 ]
    (List.rev !fired)

let test_no_nested_run () =
  ignore
    (Engine.run (fun () ->
         Alcotest.check_raises "nested run rejected"
           (Invalid_argument "Sim.Engine.run: a simulation is already running")
           (fun () -> ignore (Engine.run (fun () -> ())))))

let test_past_scheduling_rejected () =
  ignore
    (Engine.run (fun () ->
         Engine.sleep 5.0;
         match Engine.after (-4.0) (fun () -> ()) with
         | _ -> Alcotest.fail "expected Invalid_argument"
         | exception Invalid_argument _ -> ()))

(* A single-heap run is partition 0 alone: a post to a partition the
   run does not have is rejected there exactly as in a partitioned
   run. *)
let test_post_unknown_partition () =
  let post_to_3 () =
    Alcotest.check_raises "post to partition 3"
      (Invalid_argument "Sim.Engine.post: unknown partition 3")
      (fun () -> Engine.post ~partition:3 ~delay:1.0 ignore)
  in
  ignore (Engine.run post_to_3);
  ignore (Engine.run_partitioned ~lookahead:0.1 ~partitions:2 post_to_3)

(* A NaN time sorts nowhere in the heap: as the root it ended the run
   as if it had finished. Every entry point that takes a delay, a time
   or CPU work refuses it, and the run goes on to its timers. *)
let test_nan_rejected () =
  let fired = ref [] in
  let refuses name f =
    match f () with
    | () -> Alcotest.failf "%s accepted NaN" name
    | exception Invalid_argument _ -> ()
  in
  let clock =
    Engine.run_partitioned ~lookahead:0.1 ~partitions:1 (fun () ->
        ignore (Engine.after 1.0 (fun () -> fired := 1 :: !fired));
        ignore (Engine.after 2.0 (fun () -> fired := 2 :: !fired));
        let cpu = Cpu.create ~ncores:1 () in
        let nan = Float.nan in
        refuses "sleep" (fun () -> Engine.sleep nan);
        refuses "try_sleep" (fun () -> ignore (Engine.try_sleep nan));
        refuses "after" (fun () -> ignore (Engine.after nan ignore));
        refuses "post" (fun () -> Engine.post ~partition:0 ~delay:nan ignore);
        refuses "post across partitions" (fun () ->
            Engine.post ~partition:1 ~delay:nan ignore);
        refuses "spawn_in" (fun () ->
            Engine.spawn_in ~partition:1 ~delay:nan ignore);
        refuses "Cpu.consume" (fun () -> Cpu.consume cpu ~core:0 nan);
        refuses "Cpu.consume_async" (fun () ->
            ignore (Cpu.consume_async cpu ~core:0 nan)))
  in
  Alcotest.(check (list int)) "both timers fire" [ 1; 2 ] (List.rev !fired);
  check_time "run ends at the last timer" 2.0 clock

(* ------------------------------------------------------------------ *)
(* Engine allocation and lifecycle hooks *)

(* Minor words per unit of engine work, measured as the difference
   between a run of [2n] units and a run of [n] so that per-run set-up
   cancels out. [Gc.minor_words] is exact, unlike the [Gc.quick_stat]
   field, which moves only at minor collections. *)
let words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let per_unit ~n run = (words (run (2 * n)) -. words (run n)) /. float_of_int n

let check_ceiling name ~ceiling measured =
  if measured > ceiling then
    Alcotest.failf "%s: %.1f minor words, ceiling %.0f" name measured ceiling

(* A draw keeps the generator's state in its 8 bytes and mixes in
   registers: [Rng.int] allocates nothing, and [Rng.exponential] only
   the float it returns. *)
let test_rng_words () =
  let r = Rng.create 5L in
  let ints n () =
    for _ = 1 to n do
      ignore (Sys.opaque_identity (Rng.int r 1000))
    done
  in
  let exponentials n () =
    for _ = 1 to n do
      ignore (Sys.opaque_identity (Rng.exponential r ~mean:1.))
    done
  in
  check_ceiling "Rng.int" ~ceiling:0. (per_unit ~n:10_000 ints);
  check_ceiling "Rng.exponential" ~ceiling:2. (per_unit ~n:10_000 exponentials)

(* Two sleepers half a period apart: every sleep has the other's wake
   ahead of it in the heap, so each one parks. *)
let test_park_words () =
  let sleepers n () =
    ignore
      (Engine.run (fun () ->
           Engine.spawn (fun () ->
               for _ = 1 to n do
                 Engine.sleep 1.0
               done);
           Engine.sleep 0.5;
           for _ = 1 to n do
             Engine.sleep 1.0
           done))
  in
  (* [n] more iterations per sleeper are [2n] more parks. *)
  check_ceiling "park" ~ceiling:45. (per_unit ~n:1000 sleepers /. 2.)

let empty_process () = ()

(* Rounds of [k] spawns and one sleep: one more spawn per round costs
   exactly one spawned empty process. *)
let test_spawn_words () =
  let spawner k n () =
    ignore
      (Engine.run (fun () ->
           for _ = 1 to n do
             for _ = 1 to k do
               Engine.spawn empty_process
             done;
             Engine.sleep 1.0
           done))
  in
  let n = 1000 in
  let spawn =
    (words (spawner 2 n) -. words (spawner 1 n)) /. float_of_int n
  in
  check_ceiling "spawn" ~ceiling:30. spawn

(* Two partitions' timer chains half a period apart with a lookahead
   far below the gap: every event is a round of its own, and the next
   one belongs to the other partition. The same chains on one heap run
   the same events in one window, so the difference is what a window
   switch costs. *)
let rec tick n () = if n > 0 then ignore (Engine.after 1.0 (tick (n - 1)))

let test_window_words () =
  let partitioned n () =
    ignore
      (Engine.run_partitioned ~lookahead:0.1 ~partitions:2 (fun () ->
           Engine.post ~partition:1 ~delay:0.5 (tick n);
           Engine.post ~partition:2 ~delay:1.0 (tick n)))
  in
  let one_heap n () =
    ignore
      (Engine.run (fun () ->
           ignore (Engine.after 0.5 (tick n));
           ignore (Engine.after 1.0 (tick n))))
  in
  (* [n] more ticks per chain are [2n] more windows. *)
  let window =
    (per_unit ~n:1000 partitioned -. per_unit ~n:1000 one_heap) /. 2.
  in
  check_ceiling "window switch" ~ceiling:32. window

(* A lone sleeper advances the clock in place: each sleep stores the
   new clock, one boxed float, and allocates nothing else. *)
let test_lone_sleep_words () =
  let sleeper n () =
    ignore
      (Engine.run (fun () ->
           for _ = 1 to n do
             Engine.sleep 1.0
           done))
  in
  check_ceiling "lone sleep" ~ceiling:3. (per_unit ~n:1000 sleeper)

(* Lone bursts on an idle core finish in place: no job, ivar, timer or
   park. *)
let test_burst_words () =
  let bursts n () =
    ignore
      (Engine.run (fun () ->
           let cpu = Cpu.create ~ncores:1 () in
           for _ = 1 to n do
             Cpu.consume cpu ~core:0 1.0
           done))
  in
  check_ceiling "lone burst" ~ceiling:20. (per_unit ~n:1000 bursts)

(* Lone bursts behind an earlier pending event: each one arms the
   completion timer and parks, and the timer wakes it. The callback
   event itself is a few words of each unit; the timer's token is its
   heap entry, so the core keeps it without a tuple or an option. *)
let test_timer_burst_words () =
  let bursts n () =
    ignore
      (Engine.run (fun () ->
           let cpu = Cpu.create ~ncores:1 () in
           for _ = 1 to n do
             ignore (Engine.after 0.5 ignore);
             Cpu.consume cpu ~core:0 1.0
           done))
  in
  check_ceiling "timer-path burst" ~ceiling:62. (per_unit ~n:1000 bursts)

(* Sleeps of ten lookaheads in the only active partition: each wake
   opens the next virtual round of the grown window in place. *)
let test_cross_round_sleep_words () =
  let sleeper n () =
    ignore
      (Engine.run_partitioned ~lookahead:0.1 ~partitions:1 (fun () ->
           Engine.spawn_in ~partition:1 ~delay:0.1 (fun () ->
               for _ = 1 to n do
                 Engine.sleep 1.0
               done)))
  in
  check_ceiling "cross-round sleep" ~ceiling:12.
    (per_unit ~n:1000 sleeper)

(* The benchmark's probe slices host time on the lifecycle hooks, so
   the exact (hook, partition, pid) sequence is part of the engine's
   contract: one scenario with sleep, Ivar.read, Resource contention,
   yield, spawn and a cross-partition post. *)
let test_hook_sequence () =
  let log = ref [] in
  let add hook pid =
    log := (hook, Engine.current_partition (), pid) :: !log
  in
  Engine.set_trace_hooks
    (Some
       {
         Engine.on_spawn = (fun ~pid ~name:_ -> add "spawn" pid);
         on_park = (fun ~pid -> add "park" pid);
         on_wake = (fun ~pid -> add "wake" pid);
       });
  Fun.protect
    ~finally:(fun () -> Engine.set_trace_hooks None)
    (fun () ->
      ignore
        (Engine.run_partitioned ~lookahead:0.1 ~partitions:1 (fun () ->
             let iv = Engine.Ivar.create () in
             let r = Resource.create 1 in
             Engine.spawn ~name:"a" (fun () ->
                 Resource.acquire r;
                 Engine.sleep 1.0;
                 Resource.release r;
                 Engine.Ivar.fill iv 7);
             Engine.spawn ~name:"b" (fun () ->
                 Resource.acquire r;
                 Engine.yield ();
                 Resource.release r);
             Engine.post ~partition:1 ~delay:0.2 (fun () ->
                 Engine.spawn ~name:"remote" (fun () ->
                     Engine.sleep 0.3;
                     Engine.yield ()));
             ignore (Engine.Ivar.read iv);
             Engine.yield ();
             Engine.sleep 0.5)));
  Alcotest.(check (list (triple string int int)))
    "hook sequence"
    [
      ("spawn", 0, 1); ("park", 0, 1); ("spawn", 0, 2); ("park", 0, 2);
      ("spawn", 0, 3); ("park", 0, 3); ("spawn", 1, 1); ("park", 1, 1);
      ("wake", 1, 1); ("park", 1, 1); ("wake", 1, 1); ("wake", 0, 2);
      ("wake", 0, 3); ("wake", 0, 1); ("park", 0, 3); ("park", 0, 1);
      ("wake", 0, 3); ("wake", 0, 1); ("park", 0, 1); ("wake", 0, 1);
    ]
    (List.rev !log)

(* ------------------------------------------------------------------ *)
(* Resource *)

let test_resource_mutex () =
  let log = ref [] in
  ignore
    (Engine.run (fun () ->
         let m = Resource.create 1 in
         let worker name dur () =
           Resource.acquire m;
           log := (name, Engine.now ()) :: !log;
           Engine.sleep dur;
           Resource.release m
         in
         Engine.spawn (worker "a" 2.0);
         Engine.spawn (worker "b" 1.0);
         Engine.spawn (worker "c" 1.0)));
  let entries = List.rev !log in
  Alcotest.(check (list (pair string (float 1e-9))))
    "serialised in FIFO order"
    [ ("a", 0.0); ("b", 2.0); ("c", 3.0) ]
    entries

let test_resource_counts () =
  ignore
    (Engine.run (fun () ->
         let r = Resource.create 2 in
         Alcotest.(check int) "available" 2 (Resource.available r);
         Resource.acquire r;
         Resource.acquire r;
         Alcotest.(check int) "exhausted" 0 (Resource.available r);
         Resource.release r;
         Alcotest.(check int) "one back" 1 (Resource.available r);
         Resource.release r))

let test_resource_over_release () =
  ignore
    (Engine.run (fun () ->
         let r = Resource.create 1 in
         Alcotest.check_raises "over-release"
           (Invalid_argument
              "Sim.Resource.release: released more than acquired")
           (fun () -> Resource.release r)))

(* ------------------------------------------------------------------ *)
(* Cpu *)

let test_cpu_single_job () =
  ignore
    (Engine.run (fun () ->
         let cpu = Cpu.create ~ncores:1 () in
         Cpu.consume cpu ~core:0 2.0;
         check_time "exclusive job runs at full speed" 2.0 (Engine.now ())))

let test_cpu_sharing () =
  (* Two equal jobs on one core take twice as long. *)
  let t_done = ref [] in
  ignore
    (Engine.run (fun () ->
         let cpu = Cpu.create ~ncores:1 () in
         Engine.spawn (fun () ->
             Cpu.consume cpu ~core:0 1.0;
             t_done := ("a", Engine.now ()) :: !t_done);
         Engine.spawn (fun () ->
             Cpu.consume cpu ~core:0 1.0;
             t_done := ("b", Engine.now ()) :: !t_done)));
  List.iter
    (fun (name, t) -> check_time (name ^ " finish") 2.0 t)
    !t_done;
  Alcotest.(check int) "both finished" 2 (List.length !t_done)

let test_cpu_unequal_jobs () =
  (* Jobs of work 1 and 3 sharing a core: first finishes at 2 (half
     speed), then the second runs alone: 3 - 1 = 2 remaining at full
     speed, finishing at 4. *)
  let finish = Hashtbl.create 4 in
  ignore
    (Engine.run (fun () ->
         let cpu = Cpu.create ~ncores:1 () in
         Engine.spawn (fun () ->
             Cpu.consume cpu ~core:0 1.0;
             Hashtbl.replace finish "short" (Engine.now ()));
         Engine.spawn (fun () ->
             Cpu.consume cpu ~core:0 3.0;
             Hashtbl.replace finish "long" (Engine.now ()))));
  check_time "short job" 2.0 (Hashtbl.find finish "short");
  check_time "long job" 4.0 (Hashtbl.find finish "long")

let test_cpu_speed_factor () =
  ignore
    (Engine.run (fun () ->
         let cpu = Cpu.create ~speed:2.0 ~ncores:1 () in
         Cpu.consume cpu ~core:0 4.0;
         check_time "double speed halves time" 2.0 (Engine.now ())))

let test_cpu_late_arrival () =
  (* Job B arrives while A is mid-flight: A had 1s served of 2s; with
     sharing, A's remaining 1s takes 2s -> A ends at 3; B (work 2) has
     1s left when A ends -> B ends at 4. *)
  let finish = Hashtbl.create 4 in
  ignore
    (Engine.run (fun () ->
         let cpu = Cpu.create ~ncores:1 () in
         Engine.spawn (fun () ->
             Cpu.consume cpu ~core:0 2.0;
             Hashtbl.replace finish "a" (Engine.now ()));
         Engine.spawn (fun () ->
             Engine.sleep 1.0;
             Cpu.consume cpu ~core:0 2.0;
             Hashtbl.replace finish "b" (Engine.now ()))));
  check_time "a" 3.0 (Hashtbl.find finish "a");
  check_time "b" 4.0 (Hashtbl.find finish "b")

let test_cpu_independent_cores () =
  ignore
    (Engine.run (fun () ->
         let cpu = Cpu.create ~ncores:2 () in
         let d0 = Cpu.consume_async cpu ~core:0 1.0 in
         let d1 = Cpu.consume_async cpu ~core:1 1.0 in
         Engine.Ivar.read d0;
         Engine.Ivar.read d1;
         check_time "no cross-core interference" 1.0 (Engine.now ())))

let test_cpu_utilization () =
  ignore
    (Engine.run (fun () ->
         let cpu = Cpu.create ~ncores:2 () in
         Engine.spawn (fun () -> Cpu.consume cpu ~core:0 1.0);
         Engine.sleep 2.0;
         (* Core 0 busy 1s of 2s; core 1 idle: 25% of 2-core capacity. *)
         let u = Cpu.utilization cpu ~since:0.0 in
         if not (feq u 0.25) then Alcotest.failf "utilization: %g" u))

let test_cpu_least_loaded () =
  ignore
    (Engine.run (fun () ->
         let cpu = Cpu.create ~ncores:3 () in
         ignore (Cpu.consume_async cpu ~core:0 10.0);
         ignore (Cpu.consume_async cpu ~core:1 10.0);
         ignore (Cpu.consume_async cpu ~core:1 10.0);
         Alcotest.(check int) "least loaded" 2
           (Cpu.least_loaded cpu ~first:0 ~count:3);
         Alcotest.(check int) "within a range" 0
           (Cpu.least_loaded cpu ~first:0 ~count:2);
         Alcotest.(check int) "loads" 2 (Cpu.load cpu ~core:1);
         Alcotest.(check int) "total" 3 (Cpu.total_load cpu);
         ignore (Cpu.consume_async cpu ~core:2 10.0);
         Alcotest.(check int) "tie to the lowest id" 0
           (Cpu.least_loaded cpu ~first:0 ~count:3)))

let prop_cpu_work_conservation =
  (* Total completion time of N jobs submitted together on one core
     equals the sum of their work (PS conserves work). *)
  QCheck.Test.make ~name:"cpu work conservation" ~count:50
    QCheck.(list_of_size Gen.(int_range 1 8) (float_bound_exclusive 2.0))
    (fun works ->
      let works = List.map (fun w -> w +. 0.01) works in
      let total = List.fold_left ( +. ) 0. works in
      let finish = ref 0. in
      ignore
        (Engine.run (fun () ->
             let cpu = Cpu.create ~ncores:1 () in
             let ivars =
               List.map (fun w -> Cpu.consume_async cpu ~core:0 w) works
             in
             List.iter Engine.Ivar.read ivars;
             finish := Engine.now ()));
      Float.abs (!finish -. total) < 1e-6)

(* In-place bursts. A burst alone on an idle core finishes in place
   when nothing else is due before its completion; installed trace hooks
   turn every in-place path off. Each scenario runs untraced and with
   no-op hooks, and the two runs must log the same bits: every
   completion time, busy total and run-queue length. *)

let noop_hooks =
  {
    Engine.on_spawn = (fun ~pid:_ ~name:_ -> ());
    on_park = (fun ~pid:_ -> ());
    on_wake = (fun ~pid:_ -> ());
  }

(* Run [scenario cpu note] from clock [start] on a fresh CPU; [note tag]
   logs the clock, [busy_seconds] and each core's load. *)
let cpu_log ~speed ~start ~cores hooks scenario =
  let buf = Buffer.create 1024 in
  Engine.set_trace_hooks hooks;
  Fun.protect
    ~finally:(fun () -> Engine.set_trace_hooks None)
    (fun () ->
      ignore
        (Engine.run (fun () ->
             Engine.sleep start;
             let cpu = Cpu.create ~speed ~ncores:cores () in
             let note tag =
               Buffer.add_string buf
                 (Printf.sprintf "%s %h %h" tag (Engine.now ())
                    (Cpu.busy_seconds cpu));
               for core = 0 to cores - 1 do
                 Buffer.add_string buf
                   (Printf.sprintf " %d" (Cpu.load cpu ~core))
               done;
               Buffer.add_char buf '\n'
             in
             scenario cpu note)));
  Buffer.contents buf

let check_in_place ?(speed = 1.0) ?(start = 0.) ?(cores = 1) scenario =
  let untraced = cpu_log ~speed ~start ~cores None scenario in
  let hooked = cpu_log ~speed ~start ~cores (Some noop_hooks) scenario in
  Alcotest.(check string) "untraced = hooked" hooked untraced

let in_place_case name ?cores scenario =
  Alcotest.test_case name `Quick (fun () -> check_in_place ?cores scenario)

let lone_bursts cpu note =
  List.iteri
    (fun i w ->
      Cpu.consume cpu ~core:0 w;
      note (Printf.sprintf "burst %d" i);
      Engine.sleep 0.25)
    [ 0.5; 1e-3; 2.0; 0.125; 3e-7; 0.1 +. 0.2 ]

(* Two cores; on core 0 a second process arrives while the first
   still runs, and the first goes again while the second runs. *)
let overlapping_bursts cpu note =
  Engine.spawn (fun () ->
      Cpu.consume cpu ~core:0 1.0;
      note "a";
      Cpu.consume cpu ~core:0 0.5;
      note "a again");
  Engine.spawn (fun () ->
      Engine.sleep 0.5;
      Cpu.consume cpu ~core:0 1.0;
      note "b");
  Cpu.consume cpu ~core:1 0.75;
  note "main";
  Engine.sleep 0.5;
  Cpu.consume cpu ~core:1 0.3;
  note "main again"

(* An arrival already scheduled inside the burst keeps it on the timer
   path and shares the core from then on. *)
let cut_burst cpu note =
  ignore
    (Engine.after 0.3 (fun () ->
         note "arrival";
         ignore (Cpu.consume_async cpu ~core:0 0.5)));
  Cpu.consume cpu ~core:0 1.0;
  note "cut";
  Engine.sleep 2.0;
  note "after"

let nonpositive_work cpu note =
  Cpu.consume cpu ~core:0 0.;
  note "zero";
  Cpu.consume cpu ~core:0 (-1.);
  note "negative";
  Cpu.consume cpu ~core:0 1e-13;
  note "below epsilon";
  Cpu.consume cpu ~core:0 1.;
  note "one"

(* A sampler wakes every 0.3 s: some bursts end before the next sample
   and finish in place, others park behind it. *)
let sampled_bursts cpu note =
  Engine.spawn (fun () ->
      for _ = 1 to 8 do
        Engine.sleep 0.3;
        note "sample"
      done);
  List.iter
    (fun w ->
      Cpu.consume cpu ~core:0 w;
      note "burst")
    [ 0.1; 0.5; 0.05; 1.0; 0.02 ]

(* At a clock near 1e4 s on a double-speed core, one ulp of the clock
   exceeds what [epsilon] absorbs: a first completion can leave a
   residue above it, which the sub-ulp branch then retires. The test
   also counts, by the timer path's own arithmetic, the bursts that
   do. *)
let test_late_residues () =
  let residues = ref 0 in
  let late_bursts cpu note =
    for i = 1 to 40 do
      let w = 1e-4 *. float_of_int (1 + (i * 7919 mod 1000)) in
      let t0 = Engine.now () in
      let t1 = t0 +. (w *. 1. /. 2.0) in
      if w -. ((t1 -. t0) *. 2.0 /. 1.) > 1e-12 then incr residues;
      Cpu.consume cpu ~core:0 w;
      note (Printf.sprintf "burst %d" i);
      Engine.sleep 1e-3
    done
  in
  check_in_place ~speed:2.0 ~start:1e4 late_bursts;
  if !residues = 0 then Alcotest.fail "no burst left a residue above epsilon"

(* The array-backed cores against the list-based model they replaced
   ([Cpu_reference]): random schedules of blocking and asynchronous
   bursts on 1-3 cores at speeds 0.5-2, with equal works that finish
   together, works below [epsilon], clocks near 1e4 s where residues
   fall below one ulp, arrivals on busy cores, and a chain of pending
   callbacks that keeps bursts on the completion timer. Each schedule
   runs on both models, untraced and with no-op hooks (which turn the
   in-place paths off); all four logs must match bit for bit: every
   completion time in wake order, with [busy_seconds] and every core's
   load at each completion and each callback. *)

module type CPU = sig
  type t

  val create : ?speed:float -> ncores:int -> unit -> t
  val consume : t -> core:int -> float -> unit
  val consume_async : t -> core:int -> float -> unit Engine.Ivar.t
  val load : t -> core:int -> int
  val busy_seconds : t -> float
end

type burst = { core : int; work : float; async : bool; gap : float }

type schedule = {
  start : float; (* the clock the CPU is created at *)
  speed : float;
  ncores : int;
  chain : float; (* period of the pending callback chain; 0 for none *)
  procs : (float * burst list) list; (* start delay, bursts in turn *)
}

let chain_ticks = 40

module Cpu_run (C : CPU) = struct
  let log hooks sc =
    let buf = Buffer.create 4096 in
    Engine.set_trace_hooks hooks;
    Fun.protect
      ~finally:(fun () -> Engine.set_trace_hooks None)
      (fun () ->
        ignore
          (Engine.run (fun () ->
               Engine.sleep sc.start;
               let cpu = C.create ~speed:sc.speed ~ncores:sc.ncores () in
               let note tag =
                 Buffer.add_string buf
                   (Printf.sprintf "%s %h %h" tag (Engine.now ())
                      (C.busy_seconds cpu));
                 for core = 0 to sc.ncores - 1 do
                   Buffer.add_string buf
                     (Printf.sprintf " %d" (C.load cpu ~core))
                 done;
                 Buffer.add_char buf '\n'
               in
               let rec tick k () =
                 note (Printf.sprintf "tick %d" k);
                 if k < chain_ticks then
                   ignore (Engine.after sc.chain (tick (k + 1)))
               in
               if sc.chain > 0. then ignore (Engine.after sc.chain (tick 1));
               List.iteri
                 (fun p (delay, bursts) ->
                   Engine.spawn (fun () ->
                       Engine.sleep delay;
                       List.iteri
                         (fun b { core; work; async; gap } ->
                           let tag = Printf.sprintf "p%d.%d" p b in
                           if async then begin
                             let done_ = C.consume_async cpu ~core work in
                             Engine.spawn (fun () ->
                                 Engine.Ivar.read done_;
                                 note tag)
                           end
                           else begin
                             C.consume cpu ~core work;
                             note tag
                           end;
                           Engine.sleep gap)
                         bursts))
                 sc.procs)));
    Buffer.contents buf
end

module Array_cores = Cpu_run (Cpu)
module List_cores = Cpu_run (Cpu_reference)

let gen_schedule =
  let open QCheck.Gen in
  let* late = bool in
  let* start =
    if late then map (fun f -> 1e4 +. f) (float_bound_inclusive 1.)
    else oneofl [ 0.; 0.25 ]
  in
  let* speed =
    oneof [ oneofl [ 0.5; 1.; 2. ]; float_range 0.5 2. ]
  in
  let* ncores = int_range 1 3 in
  let* chain =
    frequency
      [ (2, return 0.); (1, oneofl [ 0.3; 0.05 ]); (1, float_range 0.01 0.5) ]
  in
  let work =
    frequency
      [
        (4, oneofl [ 0.25; 0.5; 1. ]);
        (3, float_range 1e-6 1.);
        (3, map (fun k -> 1e-4 *. float_of_int k) (int_range 1 1000));
        (1, oneofl [ 1e-13; 3e-7; 0.1 +. 0.2; 0. ]);
      ]
  in
  let burst =
    let* core = int_bound (ncores - 1) in
    let* work = work in
    let* async = bool in
    let* gap =
      frequency [ (3, return 0.); (2, oneofl [ 0.25; 1e-3 ]); (1, float_bound_inclusive 0.5) ]
    in
    return { core; work; async; gap }
  in
  let proc =
    let* delay =
      frequency [ (3, return 0.); (2, oneofl [ 0.1; 0.25 ]); (1, float_bound_inclusive 1.) ]
    in
    let* bursts = list_size (int_range 1 6) burst in
    return (delay, bursts)
  in
  let* procs = list_size (int_range 1 4) proc in
  return { start; speed; ncores; chain; procs }

let print_schedule sc =
  let burst b =
    Printf.sprintf "{core %d; work %h; %s; gap %h}" b.core b.work
      (if b.async then "async" else "blocking")
      b.gap
  in
  Printf.sprintf "start %h speed %h cores %d chain %h\n%s" sc.start sc.speed
    sc.ncores sc.chain
    (String.concat "\n"
       (List.map
          (fun (d, bs) ->
            Printf.sprintf "delay %h: %s" d (String.concat " " (List.map burst bs)))
          sc.procs))

let prop_cpu_reference =
  QCheck.Test.make ~name:"cpu: array cores = list reference" ~count:300
    (QCheck.make ~print:print_schedule gen_schedule)
    (fun sc ->
      let reference = List_cores.log None sc in
      reference = Array_cores.log None sc
      && reference = List_cores.log (Some noop_hooks) sc
      && reference = Array_cores.log (Some noop_hooks) sc)

let suites =
  [
    ( "sim.heap",
      [
        Alcotest.test_case "ordering" `Quick test_heap_order;
        Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
        Alcotest.test_case "cancel" `Quick test_heap_cancel;
        QCheck_alcotest.to_alcotest prop_heap_sorted;
      ] );
    ( "sim.rng",
      [
        Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "bounds" `Quick test_rng_bounds;
        Alcotest.test_case "exponential mean" `Quick
          test_rng_exponential_mean;
        Alcotest.test_case "draw words" `Quick test_rng_words;
      ] );
    ( "sim.engine",
      [
        Alcotest.test_case "sleep advances clock" `Quick
          test_sleep_advances_clock;
        Alcotest.test_case "spawn interleaving" `Quick
          test_spawn_interleaving;
        Alcotest.test_case "ivar blocks and wakes" `Quick test_ivar_blocks;
        Alcotest.test_case "ivar double fill" `Quick test_ivar_double_fill;
        Alcotest.test_case "after and cancel" `Quick test_after_and_cancel;
        Alcotest.test_case "no nested run" `Quick test_no_nested_run;
        Alcotest.test_case "past scheduling rejected" `Quick
          test_past_scheduling_rejected;
        Alcotest.test_case "post to an unknown partition" `Quick
          test_post_unknown_partition;
        Alcotest.test_case "NaN times refused" `Quick test_nan_rejected;
      ] );
    ( "sim.engine.cost",
      [
        Alcotest.test_case "park words" `Quick test_park_words;
        Alcotest.test_case "spawn words" `Quick test_spawn_words;
        Alcotest.test_case "window switch words" `Quick test_window_words;
        Alcotest.test_case "lone sleep words" `Quick test_lone_sleep_words;
        Alcotest.test_case "lone burst words" `Quick test_burst_words;
        Alcotest.test_case "timer-path burst words" `Quick
          test_timer_burst_words;
        Alcotest.test_case "cross-round sleep words" `Quick
          test_cross_round_sleep_words;
        Alcotest.test_case "hook sequence" `Quick test_hook_sequence;
      ] );
    ( "sim.resource",
      [
        Alcotest.test_case "mutex serialises" `Quick test_resource_mutex;
        Alcotest.test_case "counting" `Quick test_resource_counts;
        Alcotest.test_case "over-release" `Quick test_resource_over_release;
      ] );
    ( "sim.cpu",
      [
        Alcotest.test_case "single job" `Quick test_cpu_single_job;
        Alcotest.test_case "equal sharing" `Quick test_cpu_sharing;
        Alcotest.test_case "unequal jobs" `Quick test_cpu_unequal_jobs;
        Alcotest.test_case "speed factor" `Quick test_cpu_speed_factor;
        Alcotest.test_case "late arrival" `Quick test_cpu_late_arrival;
        Alcotest.test_case "independent cores" `Quick
          test_cpu_independent_cores;
        Alcotest.test_case "utilization" `Quick test_cpu_utilization;
        Alcotest.test_case "least loaded" `Quick test_cpu_least_loaded;
        QCheck_alcotest.to_alcotest prop_cpu_work_conservation;
        QCheck_alcotest.to_alcotest prop_cpu_reference;
        in_place_case "in place: lone bursts" lone_bursts;
        in_place_case "in place: overlapping bursts" ~cores:2
          overlapping_bursts;
        in_place_case "in place: burst cut by an arrival" cut_burst;
        in_place_case "in place: work <= 0" nonpositive_work;
        in_place_case "in place: sampled load" sampled_bursts;
        Alcotest.test_case "in place: residue near 1e4 s" `Quick
          test_late_residues;
      ] );
  ]
