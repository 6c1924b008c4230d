(* The partitioned engine's window protocol, and the partition/jobs
   determinism matrix: cluster output must be bit-identical across
   --partition host|none and any sim_jobs count, including under
   injected migration faults; cross-partition posts respect the
   lookahead bound and merge in (time, source partition, send order);
   the minipy program cache never changes observable behaviour. *)

module E = Lightvm.Experiment
module Engine = Lightvm_sim.Engine
module Cpu = Lightvm_sim.Cpu
module Fault = Lightvm_sim.Fault
module Switch = Lightvm_net.Switch
module Interp = Lightvm_minipy.Interp

(* ------------------------------------------------------------------ *)
(* Window protocol edge cases. The modeled lookahead is the top-of-rack
   switch latency, so in-model traffic always clears the bound; these
   pin the bound itself. *)

let lookahead = Switch.default_latency

let test_post_below_lookahead_rejected () =
  let rejected = ref false in
  ignore
    (Engine.run_partitioned ~jobs:1 ~lookahead ~partitions:2 (fun () ->
         (try Engine.post ~partition:1 ~delay:(lookahead /. 2.) (fun () -> ())
          with Invalid_argument _ -> rejected := true);
         Engine.stop ()));
  Alcotest.(check bool)
    "cross-partition post below lookahead rejected" true !rejected

let test_post_at_lookahead_legal () =
  (* delay = lookahead is the tightest legal event: it lands exactly on
     the next window's opening edge. *)
  let fired = ref false in
  ignore
    (Engine.run_partitioned ~jobs:1 ~lookahead ~partitions:2 (fun () ->
         Engine.post ~partition:1 ~delay:lookahead (fun () -> fired := true)));
  Alcotest.(check bool) "delay = lookahead delivered" true !fired

let test_same_partition_zero_delay () =
  (* Zero-delay events are fine inside a partition: the lookahead bound
     only constrains traffic that crosses a window barrier. *)
  let fired = ref false in
  ignore
    (Engine.run_partitioned ~jobs:1 ~lookahead ~partitions:2 (fun () ->
         Engine.post ~partition:0 ~delay:0. (fun () -> fired := true)));
  Alcotest.(check bool) "same-partition zero-delay fired" true !fired

let test_simultaneous_merge_order jobs () =
  (* Hosts 1 and 2 each send dom0 two messages, all arriving at the
     same instant. The barrier merge must order them by (time, source
     partition, per-source send order) — never by which worker finished
     first — so the deliberately reversed send below still comes out
     sorted, at any jobs count. *)
  let order = ref [] in
  let seen tag () = order := tag :: !order in
  let l = lookahead in
  ignore
    (Engine.run_partitioned ~jobs ~lookahead:l ~partitions:2 (fun () ->
         Engine.post ~partition:2 ~delay:l (fun () ->
             Engine.post ~partition:0 ~delay:l (seen "host2/first");
             Engine.post ~partition:0 ~delay:l (seen "host2/second"));
         Engine.post ~partition:1 ~delay:l (fun () ->
             Engine.post ~partition:0 ~delay:l (seen "host1/first");
             Engine.post ~partition:0 ~delay:l (seen "host1/second"))));
  Alcotest.(check (list string))
    "(time, src, seq) merge order"
    [ "host1/first"; "host1/second"; "host2/first"; "host2/second" ]
    (List.rev !order)

(* ------------------------------------------------------------------ *)
(* Adaptive window sizing must be invisible: a random multi-partition
   workload of self-hops (sub-lookahead delays), cross-partition posts
   and processes that sleep and run CPU bursts across several
   lookaheads — some right after a post — produces the exact same
   per-partition event logs, times and CPU busy totals included, with
   [adaptive] on or off, at any jobs count. Every delay is a multiple of
   an eighth of the lookahead; with a power-of-two lookahead the times
   are exact, so events of different partitions often tie and the log
   order also pins which barrier merged each message. *)

let adaptive_workload ~adaptive ~jobs ~lookahead ~partitions ~seed =
  let steps = 10 in
  let q = lookahead /. 8. in
  let logs = Array.make (partitions + 1) [] in
  (* Each cell is only ever touched by events of its own partition, so
     partitions running concurrently never share a cell. *)
  let record p tag = logs.(p) <- (Engine.now (), tag) :: logs.(p) in
  let cpus = Array.init (partitions + 1) (fun _ -> Cpu.create ~ncores:1 ()) in
  ignore
    (Engine.run_partitioned ~jobs ~adaptive ~lookahead ~partitions (fun () ->
         for p = 1 to partitions do
           (* A worker process: sleeps or CPU bursts of up to four
              lookaheads, half of them right after a cross-partition
              post, on a core the driver chain below also loads. *)
           let wrng = Random.State.make [| 0x5eed; seed; p; 1 |] in
           Engine.spawn_in ~name:"worker" ~partition:p ~delay:lookahead
             (fun () ->
               for i = 1 to steps do
                 if Random.State.bool wrng then begin
                   let target = 1 + Random.State.int wrng partitions in
                   Engine.post ~partition:target ~delay:lookahead (fun () ->
                       record target (Printf.sprintf "p%d worker->p%d %d" p target i))
                 end;
                 let span = q *. float (1 + Random.State.int wrng 32) in
                 if Random.State.bool wrng then Engine.sleep span
                 else Cpu.consume cpus.(p) ~core:0 span;
                 record p
                   (Printf.sprintf "p%d worker %d busy %h" p i
                      (Cpu.busy_seconds cpus.(p)))
               done);
           (* One driver chain per partition, each with its own stream:
              the draws depend only on (seed, p, step), never on the
              interleaving. *)
           let rng = Random.State.make [| 0x5eed; seed; p |] in
           let rec step i =
             if i <= steps then begin
               record p (Printf.sprintf "p%d step%d" p i);
               let target = 1 + Random.State.int rng partitions in
               let cross =
                 lookahead *. (1. +. (float (Random.State.int rng 5) /. 2.))
               in
               Engine.post ~partition:target ~delay:cross (fun () ->
                   record target (Printf.sprintf "p%d->p%d msg%d" p target i));
               let hop = q *. float (Random.State.int rng 8) in
               if Random.State.int rng 4 = 0 then
                 ignore (Cpu.consume_async cpus.(p) ~core:0 hop);
               Engine.post ~partition:p ~delay:hop (fun () -> step (i + 1))
             end
           in
           Engine.post ~partition:p ~delay:lookahead (fun () -> step 1)
         done));
  Array.map
    (fun l ->
      List.rev_map (fun (t, tag) -> Printf.sprintf "%h %s" t tag) l)
    logs

let adaptive_arb =
  QCheck.make
    ~print:(fun (partitions, seed) ->
      Printf.sprintf "partitions=%d seed=%d" partitions seed)
    QCheck.Gen.(pair (int_range 2 4) (int_bound 100_000))

let prop_adaptive_matrix =
  QCheck.Test.make
    ~name:"adaptive windows: logs identical to fixed windows (jobs 1/4)"
    ~count:6 adaptive_arb (fun (partitions, seed) ->
      List.for_all
        (fun lookahead ->
          let run ~adaptive ~jobs =
            adaptive_workload ~adaptive ~jobs ~lookahead ~partitions ~seed
          in
          let reference = run ~adaptive:false ~jobs:1 in
          reference = run ~adaptive:true ~jobs:1
          && reference = run ~adaptive:false ~jobs:4
          && reference = run ~adaptive:true ~jobs:4)
        [ lookahead; 1. /. 1024. ])

(* ------------------------------------------------------------------ *)
(* Determinism matrix: random cluster workloads with migration faults
   enabled must produce bit-identical output whether the hosts share
   one heap or run as partitions on 1, 2 or 8 workers. *)

(* Exact (hex) float renders, as in the result manifest: any numeric
   divergence between runs must show up in the digest. *)
let plan_digest ?spec ?fault_seed ~n ~partition ~sim_jobs id =
  Digest_manifest.(
    digest (render (Plan_run.run ~n ~partition ~sim_jobs ?spec ?fault_seed id)))

let workload_arb =
  QCheck.make
    ~print:(fun (n, seed, mult) ->
      Printf.sprintf "n=%d seed=%Ld fault-scale=%g" n seed mult)
    QCheck.Gen.(
      triple (int_range 6 20)
        (map Int64.of_int (int_bound 10_000))
        (oneofl [ 0.5; 1.0; 2.0 ]))

let prop_partition_matrix =
  QCheck.Test.make
    ~name:"cluster digests identical across partition modes and sim_jobs"
    ~count:5 workload_arb (fun (n, fault_seed, mult) ->
      let spec =
        match Fault.parse_spec E.cluster_fault_spec with
        | Ok s -> Fault.scale s mult
        | Error e -> failwith e
      in
      let digest partition sim_jobs =
        plan_digest ~spec ~fault_seed ~n ~partition ~sim_jobs "cluster"
      in
      let reference = digest `Host 1 in
      String.equal reference (digest `Host 2)
      && String.equal reference (digest `Host 8)
      && String.equal reference (digest `None 1))

let test_scale_partition_matrix () =
  (* The scale experiment's partitioned row, same matrix. *)
  let digest partition sim_jobs =
    plan_digest ~n:40 ~partition ~sim_jobs "scale"
  in
  let reference = digest `Host 1 in
  Alcotest.(check string) "sim_jobs=8" reference (digest `Host 8);
  Alcotest.(check string) "partition=none" reference (digest `None 1)

(* ------------------------------------------------------------------ *)
(* The compiled-program cache (the micro pass's minipy half) must be
   invisible: cached and fresh-parse runs agree on stdout, steps and
   errors — first call (cache miss) and second call (cache hit) alike. *)

let minipy_corpus =
  [
    Lightvm_workloads.Lambda.approx_e_program;
    "total = 0\nfor i in range(50):\n    total += i\nprint(total)\n";
    "def fib(n):\n    if n < 2:\n        return n\n    return fib(n - 1) + \
     fib(n - 2)\nprint(fib(12))\n";
    "xs = [3, 1, 2]\nprint(len(xs))\nprint(xs[0] * 10)\n";
    "s = \"light\"\nprint(s + \"vm\")\n";
    "while True:\n    pass\n" (* hits the step limit *);
    "x = (\n" (* parse error: also must be identical, and not cached *);
  ]

let test_minipy_cache_equivalence () =
  List.iter
    (fun src ->
      let fresh = Interp.run ~max_steps:200_000 ~cache:false src in
      (* Twice: first cached call misses and fills, second hits. *)
      for call = 1 to 2 do
        match (Interp.run ~max_steps:200_000 src, fresh) with
        | Ok a, Ok b ->
            Alcotest.(check int)
              (Printf.sprintf "steps (call %d)" call)
              b.Interp.steps a.Interp.steps;
            Alcotest.(check (list string))
              (Printf.sprintf "stdout (call %d)" call)
              b.Interp.stdout a.Interp.stdout
        | Error a, Error b ->
            Alcotest.(check string)
              (Printf.sprintf "error (call %d)" call)
              b a
        | Ok _, Error _ | Error _, Ok _ ->
            Alcotest.fail "cached and fresh runs disagree on success"
      done)
    minipy_corpus

let suites =
  [
    ( "partition.window",
      [
        Alcotest.test_case "post below lookahead rejected" `Quick
          test_post_below_lookahead_rejected;
        Alcotest.test_case "post at exactly lookahead legal" `Quick
          test_post_at_lookahead_legal;
        Alcotest.test_case "same-partition zero delay" `Quick
          test_same_partition_zero_delay;
        Alcotest.test_case "simultaneous merge order (jobs=1)" `Quick
          (test_simultaneous_merge_order 1);
        Alcotest.test_case "simultaneous merge order (jobs=8)" `Quick
          (test_simultaneous_merge_order 8);
        QCheck_alcotest.to_alcotest prop_adaptive_matrix;
      ] );
    ( "partition.determinism",
      [
        QCheck_alcotest.to_alcotest prop_partition_matrix;
        Alcotest.test_case "scale row matrix" `Slow
          test_scale_partition_matrix;
      ] );
    ( "minipy.cache",
      [
        Alcotest.test_case "cached = fresh on corpus" `Quick
          test_minipy_cache_equivalence;
      ] );
  ]
