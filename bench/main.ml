(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (Section 6) and use cases (Section 7), printing
   the same rows/series the paper reports next to the paper's values,
   then runs a Bechamel micro-benchmark suite over the substrate
   operations each figure leans on.

     dune exec bench/main.exe            medium scale (~10 minutes: the
                                         serverless-day row alone pushes
                                         a ~7M-request simulated day)
     dune exec bench/main.exe -- quick   CI scale (seconds)
     dune exec bench/main.exe -- full    paper scale (tens of minutes)

   Options:
     --jobs N         worker domains for the per-curve job pool
                      (default: the machine's recommended domain count,
                      capped; the rendered output is identical for any
                      value). The same budget drives the partitioned
                      engine inside the multi-host families.
     --partition MODE host (default) runs each simulated host of the
                      multi-host families in its own partition of the
                      conservative-sync parallel engine; none runs the
                      identical workload single-heap. Output is
                      bit-identical either way.
     --json PATH      also write the machine-readable perf trajectory
                      (per-experiment job/wall seconds and GC counters,
                      micro ns/op)
*)

module E = Lightvm.Experiment
module Pool = Lightvm_sim.Pool
module Series = Lightvm_metrics.Series
module Table = Lightvm_metrics.Table

type scale = Quick | Medium | Full

let usage () =
  prerr_endline
    "usage: main.exe [quick|medium|full] [--jobs N] \
     [--partition host|none] [--json PATH]";
  exit 2

let scale, jobs, partition, json_path =
  let scale = ref Medium in
  let jobs = ref (Pool.default_jobs ()) in
  let partition = ref `Host in
  let json = ref None in
  let rec go = function
    | [] -> ()
    | "quick" :: rest -> scale := Quick; go rest
    | "medium" :: rest -> scale := Medium; go rest
    | "full" :: rest -> scale := Full; go rest
    | ("--jobs" | "-j") :: v :: rest -> (
        match int_of_string_opt v with
        | Some j -> jobs := max 1 j; go rest
        | None -> usage ())
    | "--partition" :: v :: rest -> (
        match E.partition_of_string v with
        | Ok p -> partition := p; go rest
        | Error _ -> usage ())
    | "--json" :: path :: rest -> json := Some path; go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  (!scale, !jobs, !partition, !json)

(* The sequential (jobs <= 1) path runs simulations on this domain;
   pool workers tune themselves in [Pool.create]. *)
let () = Pool.tune_gc ()

let scale_name =
  match scale with Quick -> "quick" | Medium -> "medium" | Full -> "full"

let pick ~quick ~medium ~full =
  match scale with Quick -> quick | Medium -> medium | Full -> full

let t_start = Unix.gettimeofday ()

let section title paper_note =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=');
  if paper_note <> "" then Printf.printf "paper: %s\n" paper_note;
  Printf.printf "[%.1fs elapsed]\n%!" (Unix.gettimeofday () -. t_start)

(* Print a family of series side by side, sampled to ~10 rows. *)
let print_series ?(x_label = "N") (series : E.labelled list) =
  match series with
  | [] -> ()
  | first :: _ ->
      let xs = List.map fst (Series.points first.E.series) in
      let n = List.length xs in
      let step = max 1 (n / 10) in
      let sampled_idx =
        List.filteri (fun i _ -> i mod step = 0 || i = n - 1) xs
      in
      let header =
        Printf.sprintf "%8s" x_label
        :: List.map (fun l -> Printf.sprintf "%24s" l.E.label) series
      in
      print_endline (String.concat "" header);
      List.iter
        (fun x ->
          let cells =
            List.map
              (fun (l : E.labelled) ->
                match Series.y_at l.E.series ~x with
                | Some y -> Printf.sprintf "%24.2f" y
                | None -> Printf.sprintf "%24s" "-")
              series
          in
          Printf.printf "%8g%s\n" x (String.concat "" cells))
        sampled_idx

let print_table table = Format.printf "%a@." Table.pp table

(* The single generic renderer: every experiment comes back as an
   [E.result], whatever mix of series/tables/notes it produced. *)
let print_result (r : E.result) =
  print_series r.E.series;
  List.iter print_table r.E.tables;
  List.iter print_endline r.E.notes

(* ------------------------------------------------------------------ *)

(* Every experiment of the registry, at the scale's size where it has
   one (its own default otherwise), printed under its paper note. The
   worker budget drives both the per-curve pool and, inside the
   partitioned multi-host families, the per-partition windows. *)
let planned =
  List.map
    (fun (d : E.experiment) ->
      let n =
        Option.map
          (fun (quick, medium, full) -> pick ~quick ~medium ~full)
          d.E.sizes
      in
      let args = { E.default_args with n; partition; sim_jobs = jobs } in
      match E.plan args d.E.id with
      | Ok p -> (d.E.id, n, d.E.paper, p)
      | Error msg -> failwith ("bench: " ^ msg))
    E.experiments

(* GC counter deltas around a region of the calling domain: allocation
   pressure (minor/promoted words) and how many major collections the
   region forced. OCaml 5 counters are per-domain, and a pool worker
   runs one job at a time, so the deltas taken inside the job closure
   belong to that job alone. *)
type gc_delta = {
  gd_minor_words : float;
  gd_promoted_words : float;
  gd_major_collections : int;
}

let gc_zero =
  { gd_minor_words = 0.; gd_promoted_words = 0.; gd_major_collections = 0 }

let gc_add a b =
  {
    gd_minor_words = a.gd_minor_words +. b.gd_minor_words;
    gd_promoted_words = a.gd_promoted_words +. b.gd_promoted_words;
    gd_major_collections = a.gd_major_collections + b.gd_major_collections;
  }

(* On OCaml 5.1 the [minor_words] field of [Gc.quick_stat] advances
   only at minor collections, so a small row would read a whole number
   of minor heaps; [Gc.minor_words ()] is exact. Promotion and major
   collections happen at collections, so [quick_stat] serves for them. *)
let gc_now () = (Gc.minor_words (), Gc.quick_stat ())

let gc_delta (m0, g0) (m1, g1) =
  {
    gd_minor_words = m1 -. m0;
    gd_promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
    gd_major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
  }

let gc_note g =
  Printf.sprintf "%.1fM minor / %.1fM promoted words, %d major gc"
    (g.gd_minor_words /. 1e6)
    (g.gd_promoted_words /. 1e6)
    g.gd_major_collections

(* Wrap a job so its start/end timestamps and GC deltas ride along
   with its piece. *)
let timed job () =
  let g0 = gc_now () in
  let t0 = Unix.gettimeofday () in
  let v = job () in
  let t1 = Unix.gettimeofday () in
  let g1 = gc_now () in
  (v, t0, t1, gc_delta g0 g1)

(* Run every curve-job of every experiment. With a pool, all jobs are
   submitted up front (in registry order) so long experiments overlap
   short ones; results are awaited per experiment, still in fixed
   order, so the printed output matches a sequential run byte for
   byte. Each experiment gets two durations: the sum of its job
   durations (the cost it would have alone) and its wall clock (first
   job start to last job end — overlapping experiments' walls can sum
   to more than the process total). *)
let run_all () =
  if jobs <= 1 then
    List.map
      (fun (id, n, note, p) ->
        ( id, n, note, p,
          List.map (fun (_, job) -> timed job ()) p.E.plan_jobs ))
      planned
  else begin
    let pool = Pool.create ~workers:jobs in
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () ->
        planned
        |> List.map (fun (id, n, note, p) ->
               ( id, n, note, p,
                 List.map
                   (fun (_, job) -> Pool.submit pool (timed job))
                   p.E.plan_jobs ))
        |> List.map (fun (id, n, note, p, handles) ->
               ( id, n, note, p,
                 List.map
                   (fun h ->
                     match Pool.await h with
                     | Ok v -> v
                     | Error (e, bt) -> Printexc.raise_with_backtrace e bt)
                   handles )))
  end

(* (name, job count, summed job seconds, wall seconds, GC deltas) per
   experiment, in order. *)
let experiment_rows =
  Printf.printf
    "LightVM reproduction bench (scale: %s, jobs: %d, partition: %s)\n"
    scale_name jobs
    (E.partition_name partition);
  List.map
    (fun (id, n, note, p, timed_pieces) ->
      let pieces = List.map (fun (v, _, _, _) -> v) timed_pieces in
      let job_secs =
        List.fold_left
          (fun a (_, t0, t1, _) -> a +. (t1 -. t0))
          0. timed_pieces
      in
      let wall_secs =
        match timed_pieces with
        | [] -> 0.
        | (_, t0, t1, _) :: rest ->
            let start, stop =
              List.fold_left
                (fun (a, b) (_, t0, t1, _) -> (min a t0, max b t1))
                (t0, t1) rest
            in
            stop -. start
      in
      let gc =
        List.fold_left
          (fun a (_, _, _, g) -> gc_add a g)
          gc_zero timed_pieces
      in
      (match n with
      | Some n -> section (Printf.sprintf "%s (n = %d)" id n) note
      | None -> section id note);
      print_result (p.E.plan_finish pieces);
      Printf.printf "[%s: %.2f s over %d job(s), %.2f s wall; %s]\n" id
        job_secs
        (List.length timed_pieces)
        wall_secs (gc_note gc);
      (id, List.length timed_pieces, job_secs, wall_secs, gc))
    (run_all ())

(* ------------------------------------------------------------------ *)
(* Checkpoint fork-vs-cold pair: the same chaos [XS] curve to
   [n + extra] guests, once unbroken (cold: boot [n] guests, then
   [extra] more, in one simulation) and once from the frozen [n]-guest
   image (fork: thaw, then the [extra] creations). The image is built
   outside the fork row's timed region: the pair isolates what resuming
   a snapshot saves over re-simulating its prefix. Both rows render the
   identical curve (the resume contract). *)
let snapshot_pair_rows =
  let n = pick ~quick:1000 ~medium:2000 ~full:5000 in
  let extra = max 1 (n / 10) in
  section
    (Printf.sprintf "snapshot fork-vs-cold (n = %d + %d)" n extra)
    "fork pays thaw + the suffix; cold re-simulates the whole prefix";
  let key = Printf.sprintf "scale:chaos-xs@%d" n in
  let prefix =
    match
      List.find_opt
        (fun p -> String.equal p.E.prefix_key key)
        (E.prefixes { E.default_args with n = Some n })
    with
    | Some p -> p
    | None -> failwith ("snapshot bench: no prefix " ^ key)
  in
  let run origin =
    match prefix.E.prefix_run { E.default_args with n = Some extra } origin with
    | Ok r -> r.E.series
    | Error m -> failwith ("snapshot bench: " ^ m)
  in
  let g0 = gc_now () in
  let t0 = Unix.gettimeofday () in
  let cold = run `Unbroken in
  let t1 = Unix.gettimeofday () in
  let g1 = gc_now () in
  let image = prefix.E.prefix_build () in
  let g2 = gc_now () in
  let t2 = Unix.gettimeofday () in
  let fork = run (`Image image) in
  let t3 = Unix.gettimeofday () in
  let g3 = gc_now () in
  let points rows =
    List.map (fun (l : E.labelled) -> Series.points l.E.series) rows
  in
  let identical = points cold = points fork in
  print_series (cold @ fork);
  Printf.printf
    "[snapshot-cold: %.2f s | snapshot-fork: %.2f s + %.2f s image build \
     | curves identical: %b | speedup on suffix: %.1fx]\n"
    (t1 -. t0) (t3 -. t2) (t2 -. t1) identical
    ((t1 -. t0) /. Float.max 1e-9 (t3 -. t2));
  if not identical then
    failwith "snapshot bench: fork and cold curves diverge";
  [
    ("snapshot-cold", 1, t1 -. t0, t1 -. t0, gc_delta g0 g1);
    ("snapshot-fork", 1, t3 -. t2, t3 -. t2, gc_delta g2 g3);
  ]

(* ------------------------------------------------------------------ *)
(* Serverless SLO headline: the warm-pool-vs-cold-boot p99 comparison
   at the calibrated operating point. Always requests = 2000 whatever
   the scale: the autoscaler needs a few control intervals to settle
   and the tail needs enough samples, so shorter runs would compare
   transients, not the steady state the SLO row claims. *)
let serverless_slo_rows, serverless_slo =
  section "serverless SLO summary (requests = 2000)"
    "warm pool beats cold boot at p99; refill contention cedes median";
  let g0 = gc_now () in
  let t0 = Unix.gettimeofday () in
  let cold_p99_us, warm_p99_us, pool_hit_rate =
    E.serverless_bench_summary ~requests:2000
  in
  let dt = Unix.gettimeofday () -. t0 in
  let gc = gc_delta g0 (gc_now ()) in
  Printf.printf
    "  cold-boot p99: %10.1f us\n  warm-pool p99: %10.1f us\n\
    \  pool hit rate: %10.3f\n[serverless-slo: %.2f s]\n"
    cold_p99_us warm_p99_us pool_hit_rate dt;
  if warm_p99_us >= cold_p99_us then
    failwith "serverless bench: warm-pool p99 did not beat cold boot";
  ( [ ("serverless-slo", 2, dt, dt, gc) ],
    (cold_p99_us, warm_p99_us, pool_hit_rate) )

let all_experiment_rows =
  experiment_rows @ snapshot_pair_rows @ serverless_slo_rows

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: the real (wall-clock) cost of the
   substrate operations each figure leans on. One Test.make per
   figure/table. *)

open Bechamel
open Toolkit

let xs_store_ops () =
  (* Fig 5/9's substrate: real store writes + reads; after the first,
     each write re-asserts the value the node holds and each read hits
     the lookup memo. *)
  let store = Lightvm_xenstore.Xs_store.create () in
  let path = Lightvm_xenstore.Xs_path.of_string "/local/domain/1/name" in
  Staged.stage (fun () ->
      ignore (Lightvm_xenstore.Xs_store.write store ~caller:0 path "guest");
      ignore (Lightvm_xenstore.Xs_store.read store ~caller:0 path))

let xs_wire_roundtrip () =
  (* The message protocol behind Fig 5's xenstore category: scratch
     reuse, so a pack+unpack cycle allocates only the decoded strings.
     8 messages per op — a single roundtrip (~150 ns) sits below the
     harness noise floor. *)
  let scratch = Lightvm_xenstore.Xs_wire.scratch () in
  Staged.stage (fun () ->
      for _ = 1 to 8 do
        let buf =
          Lightvm_xenstore.Xs_wire.pack_into scratch
            Lightvm_xenstore.Xs_wire.Write ~req_id:1l ~tx_id:0l
            [ "/local/domain/1/name"; "guest-1" ]
        in
        ignore (Lightvm_xenstore.Xs_wire.unpack buf)
      done)

let xs_transaction () =
  (* Fig 17's conflict machinery. *)
  let store = Lightvm_xenstore.Xs_store.create () in
  let path = Lightvm_xenstore.Xs_path.of_string "/t/a" in
  Staged.stage (fun () ->
      let tx = Lightvm_xenstore.Xs_transaction.start store in
      ignore (Lightvm_xenstore.Xs_transaction.write tx ~caller:0 path "v");
      ignore (Lightvm_xenstore.Xs_transaction.commit tx ~into:store))

let xs_path_concat () =
  (* Every request path is built by extending a directory the caller
     holds; a path is its parent, a segment and a length, so this is one
     node at any depth. *)
  let dir =
    Lightvm_xenstore.Xs_path.of_string "/local/domain/7/device/vif/0"
  in
  Staged.stage (fun () ->
      ignore
        (Sys.opaque_identity (Lightvm_xenstore.Xs_path.concat dir "state")))

let event_heap () =
  (* The simulation engine behind every figure. *)
  let heap = Lightvm_sim.Heap.create () in
  let i = ref 0 in
  Staged.stage (fun () ->
      incr i;
      ignore (Lightvm_sim.Heap.push heap ~time:(float_of_int !i) ());
      if !i mod 2 = 0 then ignore (Lightvm_sim.Heap.pop heap))

let event_heap_churn () =
  (* Timeout-heavy pattern: most pushes are cancelled before they fire,
     exercising lazy cancellation and the compaction threshold. *)
  let heap = Lightvm_sim.Heap.create () in
  let i = ref 0 in
  Staged.stage (fun () ->
      incr i;
      let t = float_of_int !i in
      let a = Lightvm_sim.Heap.push heap ~time:t () in
      ignore (Lightvm_sim.Heap.push heap ~time:(t +. 0.25) ());
      let b = Lightvm_sim.Heap.push heap ~time:(t +. 0.5) () in
      Lightvm_sim.Heap.cancel heap a;
      Lightvm_sim.Heap.cancel heap b;
      ignore (Lightvm_sim.Heap.pop heap))

(* The hold model on a deep standing heap — the regime the 100-host
   cluster and the simulated day put the event core in: ~10k pending
   timers, every operation a full-depth sift. Each hold schedules one
   event a random delay ahead of the clock and pops the next one,
   exactly the engine hot loop's next_time/pop_payload sequence.
   8 holds per measured op, as in the wire row, so an op sits well
   above the harness noise floor. *)
let deep_heap_standing = 10_000

let event_heap_deep () =
  let heap = Lightvm_sim.Heap.create () in
  let rng = Lightvm_sim.Rng.create 7L in
  for _ = 1 to deep_heap_standing do
    ignore (Lightvm_sim.Heap.push heap ~time:(Lightvm_sim.Rng.float rng 1.) ())
  done;
  let clock = ref 0. in
  Staged.stage (fun () ->
      for _ = 1 to 8 do
        ignore
          (Lightvm_sim.Heap.push heap
             ~time:(!clock +. Lightvm_sim.Rng.float rng 1.)
             ());
        clock := Lightvm_sim.Heap.next_time heap;
        ignore (Lightvm_sim.Heap.pop_payload heap)
      done)

let minipy_src = "total = 0\nfor i in range(50):\n    total += i\n"

let minipy_run () =
  (* Fig 17/18's per-request program, hitting the compiled-program
     cache (the steady state for a server replaying one handler). *)
  Staged.stage (fun () -> ignore (Lightvm_minipy.Interp.run minipy_src))

let minipy_run_fresh () =
  (* Reference: parse on every run, as every call did before the
     per-domain program cache. *)
  Staged.stage (fun () ->
      ignore (Lightvm_minipy.Interp.run ~cache:false minipy_src))

let firewall_eval () =
  (* Fig 16a's per-packet work. *)
  let rs = Lightvm_workloads.Firewall.personal_ruleset ~user_id:7 in
  let pkt =
    { Lightvm_workloads.Firewall.src_ip = 0x0a000007;
      dst_ip = 0x08080808; pkt_proto = `Tcp; pkt_dport = 443 }
  in
  Staged.stage (fun () ->
      ignore (Lightvm_workloads.Firewall.eval rs pkt))

let vmconfig_text =
  "name = \"g\"\nkernel = \"daytime\"\nmemory = 4\nvcpus = 1\n\
   vif = ['bridge=xenbr0']\n"

let vmconfig_parse () =
  (* Fig 8/9's phase 6, on the single-pass cursor parser. *)
  Staged.stage (fun () ->
      ignore (Lightvm_toolstack.Vmconfig.parse vmconfig_text))

let kconfig_prune () =
  (* Tinyx's kernel-minimisation loop (Section 3.2). *)
  Staged.stage (fun () ->
      let base =
        Lightvm_tinyx.Kconfig.for_platform Lightvm_tinyx.Kconfig_types.Xen_pv
      in
      ignore
        (Lightvm_tinyx.Kconfig.prune
           ~platform:Lightvm_tinyx.Kconfig_types.Xen_pv ~app:"nginx" base))

let tls_handshake () =
  (* Fig 16c's protocol state machine. *)
  Staged.stage (fun () ->
      ignore
        (List.fold_left
           (fun state msg ->
             match Lightvm_net.Tls.step state msg with
             | Ok s -> s
             | Error _ -> state)
           Lightvm_net.Tls.initial Lightvm_net.Tls.handshake_messages))

(* The [scale] experiment's substrate, each next to the structure it
   replaced so the JSON trajectory records the ratio. *)

let scale_watch_trie () =
  (* 10k registered watches (one shutdown watch per domain, as xl
     registers them), one dispatch. The trie walks the modified path's
     spine instead of scanning the registry. *)
  let module W = Lightvm_xenstore.Xs_watch in
  let module P = Lightvm_xenstore.Xs_path in
  let t = W.create () in
  for i = 1 to 10_000 do
    W.add t ~owner:i
      ~path:
        (P.of_string (Printf.sprintf "/local/domain/%d/control/shutdown" i))
      ~token:"shutdown"
      ~deliver:(fun _ -> ())
  done;
  let modified = P.of_string "/local/domain/5000/control/shutdown" in
  Staged.stage (fun () -> ignore (W.matching t ~modified))

let scale_watch_linear () =
  (* Reference: the pre-index registry — an is_prefix test against
     every registered watch. *)
  let module P = Lightvm_xenstore.Xs_path in
  let watches =
    Array.init 10_000 (fun i ->
        P.of_string
          (Printf.sprintf "/local/domain/%d/control/shutdown" (i + 1)))
  in
  let modified = P.of_string "/local/domain/5000/control/shutdown" in
  Staged.stage (fun () ->
      let hits = ref [] in
      Array.iter
        (fun p -> if P.is_prefix p ~of_:modified then hits := p :: !hits)
        watches;
      ignore !hits)

let scale_snapshot_persistent () =
  (* Transaction snapshot of a 10k-domain store: pure structural
     sharing of the node tree and the persistent ownership map; the
     store just moves to a fresh epoch. *)
  let module S = Lightvm_xenstore.Xs_store in
  let module P = Lightvm_xenstore.Xs_path in
  let store = S.create () in
  for i = 1 to 10_000 do
    ignore
      (S.write store ~caller:0
         (P.of_string (Printf.sprintf "/local/domain/%d/name" i))
         (Printf.sprintf "g%d" i))
  done;
  Staged.stage (fun () -> ignore (S.snapshot store))

let scale_snapshot_copy () =
  (* Reference: the per-transaction table copy a mutable store needs. *)
  let tbl = Hashtbl.create 16384 in
  for i = 1 to 10_000 do
    Hashtbl.replace tbl
      (Printf.sprintf "/local/domain/%d/name" i)
      (Printf.sprintf "g%d" i)
  done;
  Staged.stage (fun () -> ignore (Hashtbl.copy tbl))

let micro_tests =
  [
    Test.make ~name:"fig5/fig9: xenstore write+read" (xs_store_ops ());
    Test.make ~name:"fig5: xs wire pack/unpack" (xs_wire_roundtrip ());
    Test.make ~name:"fig17: xenstore transaction" (xs_transaction ());
    Test.make ~name:"fig5/fig9: xs_path concat (depth 7)" (xs_path_concat ());
    Test.make ~name:"all figs: event heap push/pop" (event_heap ());
    Test.make ~name:"all figs: event heap push/cancel/pop"
      (event_heap_churn ());
    Test.make ~name:"cluster-scale: event heap hold@10k (4-ary index)"
      (event_heap_deep ());
    Test.make ~name:"fig17/18: minipy program" (minipy_run ());
    Test.make ~name:"fig17/18: minipy program (fresh-parse ref)"
      (minipy_run_fresh ());
    Test.make ~name:"fig16a: firewall rule eval" (firewall_eval ());
    Test.make ~name:"fig8/9: vm config parse" (vmconfig_parse ());
    Test.make ~name:"tinyx: kconfig prune loop" (kconfig_prune ());
    Test.make ~name:"fig16c: TLS handshake steps" (tls_handshake ());
    Test.make ~name:"scale: watch dispatch (trie, 10k watches)"
      (scale_watch_trie ());
    Test.make ~name:"scale: watch dispatch (linear ref, 10k watches)"
      (scale_watch_linear ());
    Test.make ~name:"scale: tx snapshot (persistent, 10k domains)"
      (scale_snapshot_persistent ());
    Test.make ~name:"scale: tx snapshot (copying ref, 10k domains)"
      (scale_snapshot_copy ());
  ]

(* (name, ns/op estimate) per micro-benchmark, in declaration order. *)
let micro_rows =
  section "Bechamel micro-benchmarks (real time per op)" "";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  (* 0.5 s per test: the old/new reference pairs need estimates stable
     enough that the faster side reliably measures faster. *)
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 10) ()
  in
  List.concat_map
    (fun test ->
      let raw = Benchmark.all cfg instances test in
      let analyzed = Analyze.all ols Instance.monotonic_clock raw in
      Hashtbl.fold
        (fun name result acc ->
          let est =
            match Analyze.OLS.estimates result with
            | Some (est :: _) -> Some est
            | Some [] | None -> None
          in
          (match est with
          | Some est -> Printf.printf "  %-44s %12.1f ns/op\n" name est
          | None -> Printf.printf "  %-44s (no estimate)\n" name);
          (name, est) :: acc)
        analyzed [])
    micro_tests

(* ------------------------------------------------------------------ *)
(* Machine-readable perf trajectory (--json). Hand-rolled emission:
   the schema is flat and we avoid a JSON dependency. *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let write_json path ~total =
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"scale\": \"%s\",\n" scale_name;
  out "  \"jobs\": %d,\n" jobs;
  out "  \"partition\": \"%s\",\n" (E.partition_name partition);
  (* [total_wall_seconds] is the true end-to-end process wall clock.
     Per experiment, [job_seconds] sums that experiment's job durations
     (its cost run alone, the figure regression checks compare) and
     [wall_seconds] is its first-job-start to last-job-end span; with a
     pool, experiments overlap, so per-row walls can sum to more than
     the total. *)
  out "  \"total_wall_seconds\": %.3f,\n" total;
  (* The GC columns are the executing domains' counter deltas over the
     row's jobs: allocation regressions show up in [minor_words] long
     before they move the noisy wall clocks, so the CI gate compares
     those. *)
  out "  \"experiments\": [\n";
  List.iteri
    (fun i (id, njobs, job_secs, wall_secs, gc) ->
      out
        "    { \"name\": %S, \"jobs\": %d, \"job_seconds\": %.3f, \
         \"wall_seconds\": %.3f, \"minor_words\": %.0f, \
         \"promoted_words\": %.0f, \"major_collections\": %d }%s\n"
        id njobs job_secs wall_secs gc.gd_minor_words
        gc.gd_promoted_words gc.gd_major_collections
        (if i = List.length all_experiment_rows - 1 then "" else ","))
    all_experiment_rows;
  out "  ],\n";
  (* The serverless SLO row (always requests = 2000; see the summary
     section): tail latency in microseconds per policy, plus the warm
     pool's hit rate over the run. *)
  let cold_p99_us, warm_p99_us, pool_hit_rate = serverless_slo in
  out "  \"serverless\": { \"requests\": 2000, \"cold_p99_us\": %.1f, \
       \"warm_p99_us\": %.1f, \"pool_hit_rate\": %.4f },\n"
    cold_p99_us warm_p99_us pool_hit_rate;
  out "  \"microbench\": [\n";
  List.iteri
    (fun i (name, est) ->
      let value =
        match est with
        | Some ns -> Printf.sprintf "%.1f" ns
        | None -> "null"
      in
      out "    { \"name\": \"%s\", \"ns_per_op\": %s }%s\n"
        (json_escape name) value
        (if i = List.length micro_rows - 1 then "" else ","))
    micro_rows;
  out "  ]\n";
  out "}\n";
  close_out oc

let () =
  let total = Unix.gettimeofday () -. t_start in
  (match json_path with
  | None -> ()
  | Some path ->
      write_json path ~total;
      Printf.printf "\nperf trajectory written to %s\n" path);
  Printf.printf "\nbench complete in %.1f s\n" total
