(* The benchmark's serverless node is [Serverless.run_open_loop] plus
   its own per-request invoke and, for the warm pool, a mirror of the
   library's autoscaler arm. It must simulate exactly what
   [Serverless.run_node] does, traced or not: same percentile note,
   pool hits/takes and queue series. *)

open Lvbench_core
module Engine = Lightvm_sim.Engine
module Series = Lightvm_metrics.Series
module Vmm = Lightvm_cluster.Vmm
module Mode = Lightvm_toolstack.Mode
module Serverless = Lightvm_serverless.Serverless

let run_sim f =
  let out = ref None in
  ignore
    (Engine.run (fun () ->
         out := Some (f ());
         Engine.stop ()));
  Option.get !out

let host = function
  | Serverless.Warm_pool -> Vmm.create ()
  | _ -> Vmm.create ~mode:Mode.chaos_xs ()

let summary (s : Serverless.stats) =
  ( Serverless.percentile_note ~label:"node" s,
    (s.Serverless.pool_hits, s.Serverless.pool_takes),
    Series.points s.Serverless.queue_depth )

let same_as_run_node ?(traced = false) policy () =
  let cfg = Workload.serverless_config ~policy ~requests:3000 ~seed:11L in
  let reference = run_sim (fun () -> Serverless.run_node cfg (host policy)) in
  if traced then Probe.start ();
  let ours = run_sim (fun () -> Workload.node cfg (host policy)) in
  Probe.stop ();
  let note, pool, queue = summary reference and note', pool', queue' = summary ours in
  Alcotest.(check string) "percentile note" note note';
  Alcotest.(check (pair int int)) "pool hits, takes" pool pool';
  Alcotest.(check (list (pair (float 0.) (float 0.)))) "queue series" queue queue';
  Alcotest.(check bool) "requests ran" true (reference.Serverless.completed > 0)

let () =
  Alcotest.run "benchmark"
    [
      ( "compose",
        [
          Alcotest.test_case "cold boot = run_node" `Quick (same_as_run_node Serverless.Cold_boot);
          Alcotest.test_case "warm pool = run_node" `Quick (same_as_run_node Serverless.Warm_pool);
          Alcotest.test_case "traced warm pool = run_node" `Quick
            (same_as_run_node ~traced:true Serverless.Warm_pool);
        ] );
    ]
