(* The benchmark's metric table. BENCHMARK.json at the repository
   root carries the same names, units, directions and bounds (the smoke
   test checks they agree). *)

type better = Lower | Higher

let better_name = function Lower -> "lower" | Higher -> "higher"

type metric = {
  name : string;
  unit_ : string;
  better : better;
  bound : float;  (** end-to-end only: allowed worsening, share of median *)
}

let m ?(bound = 0.) name unit_ better = { name; unit_; better; bound }

(* What a user regenerating results pays and gets: host time, memory and
   allocation per simulated operation, and the simulated result itself.
   Set-up time is its own metric so work moved into set-up shows. *)
let end_to_end =
  [
    m "setup_s" "s" Lower ~bound:0.25;
    m "host_us_per_op" "us" Lower ~bound:0.25;
    m "minor_words_per_op" "words" Lower ~bound:0.1;
    m "promoted_words_per_op" "words" Lower ~bound:0.25;
    m "peak_rss_mb" "MB" Lower ~bound:0.1;
    m "sim_p50_ms" "ms" Lower ~bound:0.03;
    m "sim_p999_ms" "ms" Lower ~bound:0.2;
  ]

(* The traced run's per-layer numbers. A layer a workload never calls
   reads 0, so host times appear here only where every workload
   measures them; the [run] table prints the rest (per-call host times
   of every span, host time per op of every layer). *)
let per_layer =
  [
    m "sim.parks_per_op" "count" Lower;
    m "sim.spawns_per_op" "count" Lower;
    m "sim.host_ns_per_park" "ns" Lower;
    m "sim.sim_s_per_host_s" "s/s" Higher;
    m "sim.residual_frac" "frac" Lower;
    m "sim.trace_overhead_frac" "frac" Lower;
    m "sim.checkpoint.freeze_ms_per_mb" "ms/MB" Lower;
    m "sim.checkpoint.thaw_ms_per_mb" "ms/MB" Lower;
    m "sim.checkpoint.image_mb" "MB" Lower;
    m "sim.checkpoint.self_frac" "frac" Lower;
    m "serverless.dispatch.self_frac" "frac" Lower;
    m "serverless.prefill.self_frac" "frac" Lower;
    m "serverless.pool_hit_rate" "frac" Higher;
    m "serverless.peak_pool_target" "count" Lower;
    m "serverless.queue_depth_max" "count" Lower;
    m "vmm.vm_create.self_frac" "frac" Lower;
    m "vmm.vm_create.minor_words_per_call" "words" Lower;
    m "vmm.vm_boot.self_frac" "frac" Lower;
    m "vmm.vm_boot.host_us_p50" "us" Lower;
    m "vmm.vm_delete.self_frac" "frac" Lower;
    m "toolstack.refill.self_frac" "frac" Lower;
    m "toolstack.create_share.xenstore" "frac" Lower;
    m "toolstack.create_share.devices" "frac" Lower;
    m "toolstack.create_share.toolstack" "frac" Lower;
    m "toolstack.create_share.load" "frac" Lower;
    m "toolstack.create_share.hypervisor" "frac" Lower;
    m "toolstack.create_share.config" "frac" Lower;
    m "xs.ops_per_op" "count" Lower;
    m "xs.watch_events_per_op" "count" Lower;
    m "xs.tx_commits_per_op" "count" Lower;
    m "xs.tx_conflict_ratio" "frac" Lower;
    m "xs.uniqueness_cmps_per_op" "count" Lower;
    m "xs.busy_frac" "frac" Lower;
    m "xs.watch_delivery.self_frac" "frac" Lower;
    m "hv.hypercalls_per_op" "count" Lower;
    m "hv.cpu_busy_frac" "frac" Lower;
    m "hv.evtchn_handler.self_frac" "frac" Lower;
    m "hv.consume_guest.self_frac" "frac" Lower;
    m "guest.boot.self_frac" "frac" Lower;
    m "guest.idle.self_frac" "frac" Lower;
    m "cluster.launch.self_frac" "frac" Lower;
    m "cluster.launch.minor_words_per_call" "words" Lower;
    m "cluster.drain.self_frac" "frac" Lower;
    m "cluster.rebalance.self_frac" "frac" Lower;
    m "cluster.migration_success_ratio" "frac" Higher;
    m "net.switch_delivery.self_frac" "frac" Lower;
    m "bench.harness.self_frac" "frac" Lower;
  ]

let find name =
  List.find_opt (fun x -> x.name = name) (end_to_end @ per_layer)
