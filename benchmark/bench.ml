(* One benchmark run of one workload, in this process.

   Set-up is repeated and reported as the median. Rounds run until the
   time budget is spent, each on a fresh thaw of the set-up image. The
   end-to-end host times are CPU time, and [host_us_per_op] is built
   from laps: each round is cut into [laps_per_round] laps at fixed op
   counts, every round of one input variant simulates exactly the same
   laps, and each lap's time is its lower quartile over that variant's
   rounds. The machine slows for stretches of a fraction of a second to
   several seconds; that only ever adds time, and a lap's lower quartile
   rejects it unless it hits that lap in three rounds out of four.
   With tracing on, each input variant runs untraced and then traced:
   untraced rounds give the reference numbers, traced rounds the
   per-layer attribution, and the two give the tracing overhead. *)

module Quantiles = Lightvm_metrics.Quantiles

type stamp = { ns : int; cpu : int; minor : float; promoted : float }

let stamp () =
  let minor, promoted, _ = Gc.counters () in
  { ns = Probe.now_ns (); cpu = Probe.cpu_ns (); minor; promoted }

type sample = {
  variant : int;
  traced : bool;
  host_s : float;  (* measured phase, wall time *)
  laps : int array;  (* measured phase in laps, CPU ns *)
  minor : float;
  promoted : float;
  r : Workload.round;
}

let laps_per_round = 40

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;
      (** the metrics BENCHMARK.json lists for this mode, with units *)
  detail : (string * float * string) list;
      (** every number the run produced, for the tables *)
  digest : string;
  errors : string list;
}

let median l =
  let _, m, _ = Stats.quartiles l in
  m

(* Lower quartile by nearest rank: the program is deterministic, so a
   lap only reads more than its own cost when the machine slowed it,
   and this ignores that unless it hit three in four rounds. *)
let lower_quartile l =
  let a = Array.of_list l in
  Array.sort compare a;
  a.((Array.length a - 1) / 4)

(* CPU µs per op over [rounds]: per input variant, the sum over lap
   positions of each lap's lower quartile across that variant's rounds.
   Rounds of one variant simulate the same ops, so they cut the same
   laps. *)
let lap_us_per_op rounds =
  let variants = List.sort_uniq compare (List.map (fun s -> s.variant) rounds) in
  let ns, ops =
    List.fold_left
      (fun (ns, ops) v ->
        let same = List.filter (fun s -> s.variant = v) rounds in
        let laps = List.fold_left (fun a s -> min a (Array.length s.laps)) max_int same in
        let t = ref 0. in
        for j = 0 to laps - 1 do
          t := !t +. lower_quartile (List.map (fun s -> float_of_int s.laps.(j)) same)
        done;
        (ns +. !t, ops + (List.hd same).r.Workload.ops))
      (0., 0) variants
  in
  ns *. 1e-3 /. float_of_int (max 1 ops)

let peak_rss_mb () =
  let from_proc () =
    let ic = open_in "/proc/self/status" in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec find () =
          let line = input_line ic in
          if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
              (fun kb -> float_of_int kb /. 1024.)
          else find ()
        in
        find ())
  in
  try from_proc ()
  with _ ->
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.

let layer_buckets =
  [
    "sim.checkpoint"; "serverless.dispatch"; "serverless.prefill";
    "vmm.vm_create"; "vmm.vm_boot"; "vmm.vm_delete"; "toolstack.refill";
    "hv.consume_guest"; "hv.evtchn_handler"; "guest.boot"; "guest.idle";
    "xs.watch_delivery"; "net.switch_delivery"; "cluster.launch";
    "cluster.drain"; "cluster.rebalance"; Probe.harness;
  ]

let span_names =
  [
    "sim.checkpoint.freeze"; "sim.checkpoint.thaw"; "vmm.vm_create";
    "vmm.vm_boot"; "vmm.vm_delete"; "vmm.set_pool_target"; "vmm.prefill_pool";
    "serverless.warm_pool"; "hv.consume_guest"; "serverless.run_open_loop";
    "cluster.launch"; "cluster.drain"; "cluster.rebalance";
  ]

let unit_of_model name =
  let ends s = Probe.has_suffix name s in
  if ends "_frac" || ends "_ratio" || ends "_rate" || Probe.has_prefix name "toolstack.create_share."
  then "frac"
  else if ends "_ms" || ends "_ms_p50" || ends "_ms_p99"
          || Probe.has_prefix name "toolstack.create_sim_ms."
  then "ms"
  else if ends "_s" then "s"
  else "count"

(* Per-layer numbers of the traced rounds. *)
let per_layer ~traced ~untraced (rep : Probe.report) =
  let ops = List.fold_left (fun a s -> a + s.r.Workload.ops) 0 traced in
  let fops = float_of_int (max 1 ops) in
  let run_s = List.fold_left (fun a s -> a +. s.host_s) 0. traced in
  let self name =
    match List.find_opt (fun (b, _, _) -> b = name) rep.Probe.buckets with
    | Some (_, s, w) -> (s, w)
    | None -> (0., 0.)
  in
  let residual = fst (self Probe.residual) in
  let attributed =
    List.fold_left
      (fun a (b, s, _) -> if b = Probe.residual then a else a +. s)
      0. rep.Probe.buckets
  in
  let host_us l = median (List.map (fun s -> s.host_s *. 1e6 /. float_of_int s.r.Workload.ops) l) in
  let sim_s = List.fold_left (fun a s -> a +. s.r.Workload.sim_elapsed) 0. traced in
  let frac x = if run_s > 0. then x /. run_s else 0. in
  let ck = Workload.ckpt in
  let per_mb s mb = if mb > 0. then s *. 1e3 /. mb else 0. in
  let engine =
    [
      ("sim.parks_per_op", float_of_int rep.Probe.parks /. fops, "count");
      ("sim.spawns_per_op", float_of_int rep.Probe.spawns /. fops, "count");
      ("sim.wakes_per_op", float_of_int rep.Probe.wakes /. fops, "count");
      ( "sim.host_ns_per_park",
        rep.Probe.traced_s *. 1e9 /. float_of_int (max 1 rep.Probe.parks), "ns" );
      ("sim.sim_s_per_host_s", (if run_s > 0. then sim_s /. run_s else 0.), "s/s");
      ("sim.run_s", run_s, "s");
      ("sim.attributed_s", attributed, "s");
      ("sim.residual_frac", frac residual, "frac");
      ("sim.reconcile_error_frac", frac (attributed +. residual -. run_s), "frac");
      ("sim.trace_overhead_frac", (host_us traced /. host_us untraced) -. 1., "frac");
      ("sim.checkpoint.freeze_ms_per_mb", per_mb ck.Workload.freeze_s ck.Workload.freeze_mb, "ms/MB");
      ("sim.checkpoint.thaw_ms_per_mb", per_mb ck.Workload.thaw_s ck.Workload.thaw_mb, "ms/MB");
      ("sim.checkpoint.image_mb", ck.Workload.image_mb, "MB");
    ]
  in
  let rounds = float_of_int (max 1 (List.length traced)) in
  let layers =
    List.concat_map
      (fun b ->
        let s, words = self b in
        [
          (b ^ ".self_frac", frac s, "frac");
          (b ^ ".host_us_per_op", s *. 1e6 /. fops, "us");
          (b ^ ".host_ms", s *. 1e3 /. rounds, "ms");
          (b ^ ".minor_words_per_op", words /. fops, "words");
        ])
      layer_buckets
  in
  let spans =
    List.concat_map
      (fun name ->
        let calls, words, p50, p99 =
          match
            List.find_opt (fun (n, _, _, _, _, _) -> n = name) rep.Probe.span_list
          with
          | Some (_, c, _, w, p50, p99) -> (c, w, p50, p99)
          | None -> (0, 0., 0., 0.)
        in
        [
          (name ^ ".calls_per_op", float_of_int calls /. fops, "count");
          (name ^ ".host_us_p50", p50 *. 1e6, "us");
          (name ^ ".host_us_p99", p99 *. 1e6, "us");
          (name ^ ".minor_words_per_call", words /. float_of_int (max 1 calls), "words");
        ])
      span_names
  in
  let model =
    match traced with
    | s :: _ ->
        List.map (fun (k, v) -> (k, v, unit_of_model k)) s.r.Workload.model
    | [] -> []
  in
  engine @ layers @ spans @ model

(* Set-up is cheap next to a round. It is repeated, [setup_first]
   batches of the workload's [setups] before the first round and one
   batch after every round, so the median is taken over set-ups spread
   across the whole run rather than over one burst the machine may
   happen to slow. The counts are fixed, not timed: set-ups warm tables
   the library keeps per process, so a timed count would make the
   rounds' allocation depend on the machine's speed. *)
let setup_first = 3

let run ~(w : Workload.t) ~seed ~seconds ~trace ~scale =
  let size = max 1 (int_of_float (Float.round (float_of_int w.Workload.size *. scale))) in
  let variants = w.Workload.variants in
  Gc.compact ();
  let setups = ref [] and image = ref "" in
  let set_up count =
    for _ = 1 to count do
      let c0 = Probe.cpu_ns () in
      image := w.Workload.setup ();
      setups := (float_of_int (Probe.cpu_ns () - c0) *. 1e-9) :: !setups
    done
  in
  set_up (setup_first * w.Workload.setups);
  (* Rounds cycle through the input variants; with tracing on, every
     variant runs untraced and then traced. *)
  let min_rounds = if trace then 2 * variants else variants in
  (* One untimed round first, so tables the model fills lazily on first
     use (path interning, memo caches) are not charged to any measured
     round: a user pays for them once per process. *)
  ignore (w.Workload.round ~seed ~variant:0 ~size ~tick:ignore ~finish:ignore !image);
  Gc.full_major ();
  let lap_ticks = max 1 (size / laps_per_round) in
  let t_start = Workload.host_s () in
  let samples = ref [] in
  let rec loop i =
    let variant = i mod variants in
    let traced = trace && i / variants mod 2 = 1 in
    Gc.compact ();
    let s0 = stamp () in
    let s1 = ref None in
    let laps = ref [] and lap_start = ref s0.cpu and ticks = ref 0 in
    let end_lap () =
      let t = Probe.cpu_ns () in
      laps := (t - !lap_start) :: !laps;
      lap_start := t
    in
    let tick () =
      incr ticks;
      if !ticks mod lap_ticks = 0 then end_lap ()
    in
    if traced then Probe.start ();
    let r =
      w.Workload.round ~seed ~variant ~size ~tick
        ~finish:(fun () ->
          Probe.stop ();
          end_lap ();
          s1 := Some (stamp ()))
        !image
    in
    let s1 = match !s1 with Some s -> s | None -> failwith "round never finished" in
    samples :=
      {
        variant;
        traced;
        host_s = float_of_int (s1.ns - s0.ns) *. 1e-9;
        laps = Array.of_list (List.rev !laps);
        minor = s1.minor -. s0.minor;
        promoted = s1.promoted -. s0.promoted;
        r;
      }
      :: !samples;
    (* Free the round before more set-ups, so the heap's high-water mark
       is one round's, not a round's plus a batch of set-ups. *)
    Gc.full_major ();
    set_up w.Workload.setups;
    let n = i + 1 in
    let elapsed = Workload.host_s () -. t_start in
    if n < min_rounds || elapsed +. (elapsed /. float_of_int n) <= seconds then loop n
  in
  loop 0;
  let samples = List.rev !samples in
  let untraced = List.filter (fun s -> not s.traced) samples in
  let traced = List.filter (fun s -> s.traced) samples in
  (* Counts and simulated metrics pool one round of each variant (they
     repeat exactly); host time takes the laps of every untraced round. *)
  let firsts = List.filteri (fun i _ -> i < variants) samples in
  let pooled f =
    List.fold_left (fun a s -> a +. f s) 0. firsts
    /. float_of_int (List.fold_left (fun a s -> a + s.r.Workload.ops) 0 firsts)
  in
  let sim = Quantiles.create () in
  List.iter (fun s -> Quantiles.merge_into sim ~src:s.r.Workload.sim) firsts;
  let q p = 1e3 *. Quantiles.quantile sim p in
  let attempted = List.fold_left (fun a s -> a + s.r.Workload.ops) 0 samples in
  let failed = List.fold_left (fun a s -> a + s.r.Workload.failed) 0 samples in
  let e2e =
    [
      ("setup_s", median !setups, "s");
      ("host_us_per_op", lap_us_per_op untraced, "us");
      ("minor_words_per_op", pooled (fun s -> s.minor), "words");
      ("promoted_words_per_op", pooled (fun s -> s.promoted), "words");
      ("peak_rss_mb", peak_rss_mb (), "MB");
      ("sim_p50_ms", q 0.5, "ms");
      ("sim_p999_ms", q 0.999, "ms");
    ]
  in
  let info =
    [
      ("setups", float_of_int (List.length !setups), "count");
      ("rounds", float_of_int (List.length samples), "count");
      ("ops_per_round", float_of_int (List.hd samples).r.Workload.ops, "count");
      ("laps_per_round", float_of_int (Array.length (List.hd samples).laps), "count");
      ( "host_wall_us_per_op",
        median (List.map (fun s -> s.host_s *. 1e6 /. float_of_int s.r.Workload.ops) untraced),
        "us" );
      ("sim_samples", float_of_int (Quantiles.count sim), "count");
      ("ops_failed_frac", float_of_int failed /. float_of_int (max 1 attempted), "frac");
    ]
  in
  let layer =
    if trace then per_layer ~traced ~untraced (Probe.report ()) else []
  in
  let detail = e2e @ info @ layer in
  let wanted = if trace then Spec.per_layer else Spec.end_to_end in
  let metrics =
    List.map
      (fun (m : Spec.metric) ->
        match List.find_opt (fun (n, _, _) -> n = m.Spec.name) detail with
        | Some (n, v, _) -> (n, v, m.Spec.unit_)
        | None -> (m.Spec.name, nan, m.Spec.unit_))
      wanted
  in
  let digest_of_variant v =
    (List.find (fun s -> s.variant = v) samples).r.Workload.digest
  in
  let errors =
    List.concat_map (fun s -> s.r.Workload.errors) samples
    @ (if List.for_all (fun s -> s.r.Workload.digest = digest_of_variant s.variant) samples
       then []
       else [ "simulated outputs differ between rounds of one input (traced or not)" ])
    @ List.filter_map
        (fun (n, v, _) ->
          if Float.is_finite v then None else Some (n ^ " is not a finite number"))
        metrics
    @
    match List.find_opt (fun (n, _, _) -> n = "sim.reconcile_error_frac") detail with
    | Some (_, v, _) when Float.abs v > 0.01 ->
        [ Printf.sprintf "traced slices do not reconcile with run_s (off by %.2f%%)" (100. *. v) ]
    | _ -> []
  in
  let errors = List.sort_uniq compare errors in
  {
    correct = errors = [];
    attempted;
    failed;
    metrics;
    detail;
    digest = String.concat "," (List.init variants digest_of_variant);
    errors;
  }

let metrics_json l =
  Json.Obj
    (List.map
       (fun (n, v, u) -> (n, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str u) ]))
       l)

(* The JSON result: the last line a measurement prints. *)
let result_line res =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool res.correct);
         ("attempted", Json.Num (float_of_int res.attempted));
         ("failed", Json.Num (float_of_int res.failed));
         ("metrics", metrics_json res.metrics);
       ])

(* Everything else, on one line that [run] parses. *)
let detail_prefix = "lvbench-detail "

let detail_line ~workload ~seed ~trace res =
  detail_prefix
  ^ Json.to_string
      (Json.Obj
         [
           ("workload", Json.Str workload);
           ("seed", Json.Num (float_of_int seed));
           ("trace", Json.Bool trace);
           ("digest", Json.Str res.digest);
           ("errors", Json.Arr (List.map (fun e -> Json.Str e) res.errors));
           ("metrics", metrics_json res.detail);
         ])
