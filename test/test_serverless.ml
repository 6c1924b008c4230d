(* The open-loop serverless family (DESIGN.md section 12): the
   determinism invariant (equal seed => equal digest across the
   jobs x partition matrix), the queueing core against M/M/k theory, the
   autoscaler's exact resource accounting after a drain, and the
   streaming quantile accumulator it all reports through. *)

module E = Lightvm.Experiment
module Engine = Lightvm_sim.Engine
module Rng = Lightvm_sim.Rng
module Series = Lightvm_metrics.Series
module Quantiles = Lightvm_metrics.Quantiles
module Vmm = Lightvm_cluster.Vmm
module S = Lightvm_serverless.Serverless
module A = Lightvm_serverless.Arrival
module Create = Lightvm_toolstack.Create
module Guest = Lightvm_guest.Guest

let run_sim f =
  let result = ref None in
  ignore
    (Engine.run (fun () ->
         result := Some (f ());
         Engine.stop ()));
  Option.get !result

(* Exact-hex render of a piece: any float drift shows in the digest. *)
let piece_digest (p : E.piece) =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (l : E.labelled) ->
      Buffer.add_string buf ("# " ^ l.E.label ^ "\n");
      List.iter
        (fun (x, y) -> Buffer.add_string buf (Printf.sprintf "%h\t%h\n" x y))
        (Series.points l.E.series))
    p.E.p_series;
  List.iter (fun n -> Buffer.add_string buf (n ^ "\n")) p.E.p_notes;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let result_digest (r : E.result) =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (l : E.labelled) ->
      Buffer.add_string buf ("# " ^ l.E.label ^ "\n");
      List.iter
        (fun (x, y) -> Buffer.add_string buf (Printf.sprintf "%h\t%h\n" x y))
        (Series.points l.E.series))
    r.E.series;
  List.iter (fun n -> Buffer.add_string buf (n ^ "\n")) r.E.notes;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* ------------------------------------------------------------------ *)
(* Determinism: the fleet cell across the jobs x partition matrix, run
   as the registry's serverless/fleet/4 job. *)

let fleet_arb =
  QCheck.make
    ~print:(fun (requests, seed) ->
      Printf.sprintf "requests=%d seed=%Ld" requests seed)
    QCheck.Gen.(pair (int_range 40 160) (map Int64.of_int (int_bound 10_000)))

let prop_fleet_matrix =
  QCheck.Test.make
    ~name:"serverless fleet digests identical across partition and sim_jobs"
    ~count:5 fleet_arb (fun (requests, seed) ->
      let digest partition sim_jobs =
        let plan =
          Plan_run.plan ~n:requests ~partition ~sim_jobs ~fault_seed:seed
            "serverless"
        in
        piece_digest ((List.assoc "serverless/fleet/4" plan.E.plan_jobs) ())
      in
      let reference = digest `Host 1 in
      String.equal reference (digest `Host 4)
      && String.equal reference (digest `Host 8)
      && String.equal reference (digest `None 1))

(* The whole family plan: worker-pool jobs must not change the render
   either (jobs only schedules; every cell owns its streams). *)
let test_family_jobs_matrix () =
  let digest jobs partition =
    result_digest (Plan_run.run ~jobs ~n:250 ~partition "serverless")
  in
  let reference = digest 1 `Host in
  Alcotest.(check string) "jobs=8" reference (digest 8 `Host);
  Alcotest.(check string) "partition=none" reference (digest 1 `None)

(* ------------------------------------------------------------------ *)
(* Queueing core vs M/M/k theory: with pure-delay service (no VM
   plumbing, no dom0 contention) the dispatcher is exactly an M/M/k
   queue, so the measured mean sojourn must approach Erlang C's
   prediction. rho = 0.75, ~21k requests; measured error is ~5%, the
   bound leaves room for engine evolution without hiding a real bug. *)

let test_mmk_mean_sojourn () =
  let rate = 300. and service_mean = 0.01 and servers = 4 in
  let stats =
    run_sim (fun () ->
        let root = Rng.create 2024L in
        let arrival_rng = Rng.split root in
        let service_rng = Rng.split root in
        S.run_open_loop
          ~gen:(A.generator (A.Poisson { rate }) ~rng:arrival_rng)
          ~service_rng ~duration:70. ~concurrency:servers ~service_mean
          ~sample_every:1.
          ~invoke:(fun _ service_s ->
            Engine.sleep service_s;
            true)
          ~pool_stats:(fun () -> (0, 0))
          ())
  in
  let measured = Quantiles.mean stats.S.latency in
  let analytic =
    S.erlang_c_wait ~rate ~service_mean ~servers +. service_mean
  in
  let rel = abs_float (measured -. analytic) /. analytic in
  if rel > 0.15 then
    Alcotest.failf "mean sojourn %.6fs vs Erlang C %.6fs (rel err %.3f)"
      measured analytic rel;
  Alcotest.(check bool)
    "all arrivals completed"
    true
    (stats.S.completed = stats.S.requests && stats.S.failures = 0)

(* An unstable offered load must be rejected, not return nonsense. *)
let test_erlang_c_rejects_unstable () =
  Alcotest.check_raises "rate >= capacity"
    (Invalid_argument
       "Serverless.erlang_c_wait: unstable system (rate >= capacity)")
    (fun () -> ignore (S.erlang_c_wait ~rate:500. ~service_mean:0.01 ~servers:4))

(* ------------------------------------------------------------------ *)
(* Autoscaler accounting: after a full warm-pool run, scaling the pool
   target to zero must release every domain, frame, event channel,
   grant, control page and store node the pool and its instances ever
   held — bit-exact against a snapshot taken at the same quiescent
   state before the run. *)

let test_autoscaler_drain_no_leak () =
  let leak =
    run_sim (fun () ->
        let host = Vmm.create () in
        let cfg policy =
          {
            (S.default_config
               ~arrival:(A.Poisson { rate = E.serverless_rate })
               ~duration:1.5 policy)
            with
            S.seed = 11L;
          }
        in
        (* First cell materialises the host's persistent store
           directories (they live for the host's lifetime), then the
           pool is drained and the refill daemon left to quiesce:
           that's the reference state. *)
        ignore (S.run_node (cfg S.Warm_pool) host);
        Engine.sleep 2.;
        S.warm_pool host ~target:0;
        let before = Vmm.resources host in
        ignore (S.run_node (cfg S.Warm_pool) host);
        Engine.sleep 2.;
        S.warm_pool host ~target:0;
        Vmm.check_leak host ~before)
  in
  match leak with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "autoscaler drain leaked: %s" msg

(* ------------------------------------------------------------------ *)
(* The streaming quantile accumulator. *)

let test_quantiles_nearest_rank () =
  let q = Quantiles.create () in
  List.iter (Quantiles.add q) [ 5.; 1.; 4.; 2.; 3. ];
  Alcotest.(check int) "count" 5 (Quantiles.count q);
  Alcotest.(check (float 1e-9)) "p0" 1. (Quantiles.quantile q 0.);
  Alcotest.(check (float 1e-9)) "p50" 3. (Quantiles.quantile q 0.5);
  Alcotest.(check (float 1e-9)) "p100" 5. (Quantiles.quantile q 1.);
  Alcotest.(check (float 1e-9)) "mean" 3. (Quantiles.mean q);
  (* adding after a quantile query invalidates the sorted cache *)
  Quantiles.add q 0.;
  Alcotest.(check (float 1e-9)) "p0 after add" 0. (Quantiles.quantile q 0.);
  let m = Quantiles.create () in
  Quantiles.add m 10.;
  Quantiles.merge_into m ~src:q;
  Alcotest.(check int) "merged count" 7 (Quantiles.count m);
  Alcotest.(check (float 1e-9)) "merged max" 10. (Quantiles.quantile m 1.)

(* Degenerate flag values are refused where they are parsed. Each of
   these would otherwise hang the generator: a zero diurnal period never
   accepts a candidate, a zero or negative MMPP sojourn mean never leaves
   its phase, an infinite rate never advances time; nan would render nan
   rows. A zero scale is refused by the registry the same way. *)
let test_degenerate_flags_refused () =
  List.iter
    (fun (arrival, rate, period) ->
      match A.of_flag ~rate ~period arrival with
      | Ok _ ->
          Alcotest.failf "--arrival %s, rate %g, period %g accepted" arrival
            rate period
      | Error _ -> ())
    [
      ("diurnal", 2000., 0.);
      ("mmpp", 2000., 0.);
      ("mmpp", 2000., -5.);
      ("poisson", Float.infinity, 0.005);
      ("poisson", Float.nan, 1.);
      ("poisson", 0., 1.);
      ("mmpp", 2000., Float.infinity);
    ];
  (match A.of_flag ~rate:2000. ~period:1. "mmpp" with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg);
  match E.plan (Plan_run.args ~n:0 ()) "serverless" with
  | Ok _ -> Alcotest.fail "plan ~n:0 \"serverless\" accepted"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Allocation per warm request: [run_node] on one LightVM host with a
   warm pool of 4 and Poisson arrivals at 80 req/s, as a host of the
   benchmark's serverless-warm fleet runs. The difference between a run
   of about 4,000 requests and one of about 2,000, over the difference
   in requests, cancels the set-up. [Gc.minor_words] is exact. *)

let warm_run requests =
  let cfg =
    {
      (S.default_config
         ~arrival:(A.Poisson { rate = 80. })
         ~duration:(float_of_int requests /. 80.)
         S.Warm_pool)
      with
      S.seed = 7L;
      autoscaler = { S.default_autoscaler with S.min_target = 4 };
    }
  in
  let w0 = Gc.minor_words () in
  let stats =
    run_sim (fun () ->
        let host = Vmm.create () in
        S.warm_pool host ~target:4;
        S.run_node cfg host)
  in
  (Gc.minor_words () -. w0, stats.S.requests)

let test_warm_request_words () =
  let w1, r1 = warm_run 2000 in
  let w2, r2 = warm_run 4000 in
  let per_request = (w2 -. w1) /. float_of_int (r2 - r1) in
  if per_request > 1150. then
    Alcotest.failf "warm request: %.1f minor words, ceiling 1150" per_request

(* The steps of one noxs lifecycle on an idle LightVM host, each timed
   like the split toolstack's: a refill's [Create.prepare] with no
   breakdown, then [Create.execute] into a breakdown, the boot, and
   [Create.destroy]. Each is averaged over 500 lifecycles after 20 that
   warm the host's tables up. *)
let test_noxs_step_words () =
  let steps = Array.make 3 0. in
  let n = 500 in
  run_sim (fun () ->
      let host = Vmm.create () in
      let env = Lightvm_toolstack.Toolstack.env (Vmm.toolstack host) in
      let cfg =
        Lightvm_toolstack.Vmconfig.for_image ~nics:0 ~disks:0 ~name:"fn"
          Lightvm_guest.Image.minipython
      in
      let mem_mb = Create.effective_mem_mb env cfg in
      for i = 1 to 20 + n do
        let w0 = Gc.minor_words () in
        let shell =
          match Create.prepare env ~mem_mb ~vcpus:1 ~nics:0 ~disks:0 () with
          | Ok shell -> shell
          | Error reason -> Alcotest.fail reason
        in
        let w1 = Gc.minor_words () in
        let created =
          match
            Create.execute env shell ~since:(Engine.now ()) cfg
              ~breakdown:(Create.breakdown_create ()) ()
          with
          | Ok created -> created
          | Error reason -> Alcotest.fail reason
        in
        let w2 = Gc.minor_words () in
        Guest.wait_ready created.Create.guest;
        let w3 = Gc.minor_words () in
        Create.destroy env created;
        let w4 = Gc.minor_words () in
        if i > 20 then begin
          steps.(0) <- steps.(0) +. (w1 -. w0);
          steps.(1) <- steps.(1) +. (w2 -. w1);
          steps.(2) <- steps.(2) +. (w4 -. w3)
        end
      done);
  List.iteri
    (fun i (name, ceiling) ->
      let per_step = steps.(i) /. float_of_int n in
      if per_step > ceiling then
        Alcotest.failf "%s: %.1f minor words, ceiling %.0f" name per_step
          ceiling)
    [
      ("Create.prepare", 195.);
      ("Create.execute", 116.);
      ("Create.destroy", 17.);
    ]

let suites =
  [
    ( "serverless",
      [
        Alcotest.test_case "family digest: jobs x partition" `Quick
          test_family_jobs_matrix;
        QCheck_alcotest.to_alcotest prop_fleet_matrix;
        Alcotest.test_case "M/M/k mean sojourn vs Erlang C" `Quick
          test_mmk_mean_sojourn;
        Alcotest.test_case "Erlang C rejects unstable load" `Quick
          test_erlang_c_rejects_unstable;
        Alcotest.test_case "autoscaler drain leaks nothing" `Quick
          test_autoscaler_drain_no_leak;
        Alcotest.test_case "quantiles: nearest rank, merge" `Quick
          test_quantiles_nearest_rank;
        Alcotest.test_case "degenerate arrival flags refused" `Quick
          test_degenerate_flags_refused;
      ] );
    ( "serverless.cost",
      [
        Alcotest.test_case "warm request words" `Quick test_warm_request_words;
        Alcotest.test_case "noxs create step words" `Quick test_noxs_step_words;
      ] );
  ]
