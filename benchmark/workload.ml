(* The four benchmark workloads, driven through the library's public
   layer APIs only.

   Each workload has a set-up that builds a quiesced simulation — hosts
   booted, warmed and (for the warm fleet) pools prefilled — and freezes
   it to bytes, and a round that thaws a fresh copy and runs the
   measured work on it. Every round of a run thaws the same bytes and
   draws the same seeded inputs, so every round must produce the same
   simulated-output digest. *)

module Engine = Lightvm_sim.Engine
module Rng = Lightvm_sim.Rng
module Cpu = Lightvm_sim.Cpu
module Checkpoint = Lightvm_sim.Checkpoint
module Quantiles = Lightvm_metrics.Quantiles
module Series = Lightvm_metrics.Series
module Image = Lightvm_guest.Image
module Xen = Lightvm_hv.Xen
module Mode = Lightvm_toolstack.Mode
module Toolstack = Lightvm_toolstack.Toolstack
module Vmconfig = Lightvm_toolstack.Vmconfig
module Xs_server = Lightvm_xenstore.Xs_server
module Switch = Lightvm_net.Switch
module Vmm = Lightvm_cluster.Vmm
module Cluster = Lightvm_cluster.Cluster
module Scheduler = Lightvm_cluster.Scheduler
module Serverless = Lightvm_serverless.Serverless
module Arrival = Lightvm_serverless.Arrival

(* ------------------------------------------------------------------ *)
(* Checkpoint calls, timed directly (every run reports their host cost
   per MB, traced or not) and spanned for the traced run. *)

type ckpt = {
  mutable freeze_s : float;
  mutable freeze_mb : float;
  mutable thaw_s : float;
  mutable thaw_mb : float;
  mutable image_mb : float;  (* largest image frozen *)
}

let ckpt = { freeze_s = 0.; freeze_mb = 0.; thaw_s = 0.; thaw_mb = 0.; image_mb = 0. }

let host_s () = float_of_int (Probe.now_ns ()) *. 1e-9

let fail_ckpt what e =
  failwith (what ^ ": " ^ Checkpoint.error_to_string e)

let freeze v =
  Probe.span "sim.checkpoint.freeze" (fun () ->
      let t0 = host_s () in
      match Checkpoint.freeze v with
      | Error e -> fail_ckpt "freeze" e
      | Ok bytes ->
          let mb = float_of_int (String.length bytes) /. 1048576. in
          ckpt.freeze_s <- ckpt.freeze_s +. (host_s () -. t0);
          ckpt.freeze_mb <- ckpt.freeze_mb +. mb;
          ckpt.image_mb <- Float.max ckpt.image_mb mb;
          bytes)

let thaw bytes =
  Probe.span "sim.checkpoint.thaw" (fun () ->
      let t0 = host_s () in
      match Checkpoint.thaw bytes with
      | Error e -> fail_ckpt "thaw" e
      | Ok v ->
          ckpt.thaw_s <- ckpt.thaw_s +. (host_s () -. t0);
          ckpt.thaw_mb <-
            ckpt.thaw_mb +. (float_of_int (String.length bytes) /. 1048576.);
          v)

(* ------------------------------------------------------------------ *)
(* What a round hands back to the harness. *)

type round = {
  ops : int;  (** requests, guests created, or launches + migrations *)
  failed : int;  (** failed layer calls among [ops] *)
  sim : Quantiles.t;  (** simulated seconds per op *)
  sim_elapsed : float;  (** simulated seconds the measured phase covered *)
  digest : string;  (** hex digest of every simulated output *)
  errors : string list;  (** failed output checks *)
  model : (string * float) list;  (** per-layer model counters *)
}

(* Per-VM numbers read through [Vmm.vm_counters] (before each delete,
   or after boot for guests that stay), plus delete times. *)
type vm_stats = {
  create_sim : Quantiles.t;
  boot_sim : Quantiles.t;
  delete_sim : Quantiles.t;
  breakdown : float array;  (* summed seconds per category, canonical order *)
  mutable cat_names : string list;
}

let vm_stats () =
  {
    create_sim = Quantiles.create ();
    boot_sim = Quantiles.create ();
    delete_sim = Quantiles.create ();
    breakdown = Array.make 6 0.;
    cat_names = [];
  }

let record_counters vs host domid =
  match Vmm.vm_counters host ~domid with
  | Error _ -> ()
  | Ok c ->
      Quantiles.add vs.create_sim c.Vmm.vc_create_s;
      Quantiles.add vs.boot_sim c.Vmm.vc_boot_s;
      vs.cat_names <- List.map fst c.Vmm.vc_breakdown;
      List.iteri
        (fun i (_, s) -> vs.breakdown.(i) <- vs.breakdown.(i) +. s)
        c.Vmm.vc_breakdown

let merge_vm_stats l =
  let m = vm_stats () in
  List.iter
    (fun vs ->
      Quantiles.merge_into m.create_sim ~src:vs.create_sim;
      Quantiles.merge_into m.boot_sim ~src:vs.boot_sim;
      Quantiles.merge_into m.delete_sim ~src:vs.delete_sim;
      Array.iteri (fun i s -> m.breakdown.(i) <- m.breakdown.(i) +. s) vs.breakdown;
      if vs.cat_names <> [] then m.cat_names <- vs.cat_names)
    l;
  m

let q_ms q p = if Quantiles.count q = 0 then 0. else 1e3 *. Quantiles.quantile q p

let vm_model vs =
  let total = Array.fold_left ( +. ) 0. vs.breakdown in
  [
    ("vmm.vm_create.sim_ms_p50", q_ms vs.create_sim 0.5);
    ("vmm.vm_create.sim_ms_p99", q_ms vs.create_sim 0.99);
    ("vmm.vm_boot.sim_ms_p50", q_ms vs.boot_sim 0.5);
    ("vmm.vm_boot.sim_ms_p99", q_ms vs.boot_sim 0.99);
    ("vmm.vm_delete.sim_ms_p50", q_ms vs.delete_sim 0.5);
  ]
  @ List.concat
      (List.mapi
         (fun i cat ->
           let n = float_of_int (max 1 (Quantiles.count vs.create_sim)) in
           [
             ("toolstack.create_sim_ms." ^ cat, 1e3 *. vs.breakdown.(i) /. n);
             ( "toolstack.create_share." ^ cat,
               if total > 0. then vs.breakdown.(i) /. total else 0. );
           ])
         vs.cat_names)

(* Cumulative host-side model counters, read through public APIs. *)
let host_counters host =
  let xs = Xs_server.counters (Toolstack.xs_server (Vmm.toolstack host)) in
  let xen = Vmm.xen host in
  [|
    float_of_int xs.Xs_server.ops;
    float_of_int xs.Xs_server.watch_events;
    float_of_int xs.Xs_server.tx_commits;
    float_of_int xs.Xs_server.tx_conflicts;
    float_of_int xs.Xs_server.uniqueness_cmps;
    xs.Xs_server.busy_time;
    float_of_int (Xen.hypercalls xen);
    Cpu.busy_seconds (Xen.cpu xen);
  |]

let counters_delta ~before ~after = Array.mapi (fun i a -> a -. before.(i)) after

let sum_counters l =
  List.fold_left (Array.map2 ( +. )) (Array.make 8 0.) l

(* Per-op model metrics from summed counter deltas over [hosts] hosts
   with [cores] cores each, across [elapsed] simulated seconds. *)
let counter_model ~ops ~hosts ~cores ~elapsed d =
  let per x = x /. float_of_int (max 1 ops) in
  let cap = float_of_int hosts *. elapsed in
  [
    ("xs.ops_per_op", per d.(0));
    ("xs.watch_events_per_op", per d.(1));
    ("xs.tx_commits_per_op", per d.(2));
    ( "xs.tx_conflict_ratio",
      if d.(2) +. d.(3) > 0. then d.(3) /. (d.(2) +. d.(3)) else 0. );
    ("xs.uniqueness_cmps_per_op", per d.(4));
    ("xs.busy_frac", if cap > 0. then d.(5) /. cap else 0.);
    ("hv.hypercalls_per_op", per d.(6));
    ( "hv.cpu_busy_frac",
      if cap > 0. then d.(7) /. (cap *. float_of_int cores) else 0. );
  ]

let digest_of buf = Digest.to_hex (Digest.string (Buffer.contents buf))

let add_quantiles buf q =
  Buffer.add_string buf (Printf.sprintf "n=%d\n" (Quantiles.count q));
  if Quantiles.count q > 0 then
    List.iter
      (fun p -> Buffer.add_string buf (Printf.sprintf "%h\n" (Quantiles.quantile q p)))
      [ 0.; 0.5; 0.9; 0.99; 0.999; 1. ]

(* ------------------------------------------------------------------ *)
(* Seeded inputs *)

(* A per-purpose stream: equal (seed, variant, stream) give equal
   inputs. *)
let rng ~seed ~variant stream =
  Rng.create
    (Int64.add
       (Int64.mul (Int64.of_int seed) 1_000_003L)
       (Int64.of_int ((variant * 16) + stream)))

(* An xl-style config file for [name]: the request's own settings plus
   a seeded tenant description of 0-255 bytes. The pipeline's config
   phase parses it (and charges per byte), so simulated create times
   vary with the seed. *)
let config_text r ~name ~nics image =
  let base = Vmconfig.to_string (Vmconfig.for_image ~nics ~disks:0 ~name image) in
  let len = Rng.int r 256 in
  let desc = String.init len (fun _ -> Char.chr (Char.code 'a' + Rng.int r 26)) in
  Printf.sprintf "%sdescription = \"%s\"\n" base desc

(* Guest [i] of a closed loop: a daytime unikernel with one vif. *)
let guest_request r ~prefix i =
  let name = Printf.sprintf "%s-%d" prefix i in
  Vmm.vm_request ~name ~config_text:(config_text r ~name ~nics:1 Image.daytime)
    Image.daytime

(* ------------------------------------------------------------------ *)
(* Serverless node: [Serverless.run_open_loop] plus the benchmark's own
   invoke (the library's per-request VM lifecycle, spanned per layer)
   and, for the warm pool, a mirror of the library's autoscaler arm.
   test_compose.ml pins it to [Serverless.run_node]. *)

let fn_image = Image.minipython
let rate = 80.
let pool_min = 4

let invoke vs host idx service_s =
  let name = Printf.sprintf "fn-%d" idx in
  match
    Probe.span "vmm.vm_create" (fun () ->
        Vmm.vm_create host (Vmm.vm_request ~name ~nics:0 ~disks:0 fn_image))
  with
  | Error _ -> false
  | Ok vi ->
      let domid = vi.Vmm.vi_domid in
      (match Probe.span "vmm.vm_boot" (fun () -> Vmm.vm_boot host ~domid) with
      | Ok () | Error _ -> ());
      Probe.span "hv.consume_guest" (fun () ->
          Xen.consume_guest (Vmm.xen host) ~domid service_s);
      record_counters vs host domid;
      let t0 = Engine.now () in
      (match Probe.span "vmm.vm_delete" (fun () -> Vmm.vm_delete host ~domid) with
      | Ok () | Error _ -> ());
      Quantiles.add vs.delete_sim (Engine.now () -. t0);
      true

let node ?(vs = vm_stats ()) ?(tick = ignore) (cfg : Serverless.config) host =
  let root = Rng.create cfg.Serverless.seed in
  let arrival_rng = Rng.split root in
  let service_rng = Rng.split root in
  let gen = Arrival.generator cfg.Serverless.arrival ~rng:arrival_rng in
  let sample_every = Float.max (cfg.Serverless.duration /. 50.) 1e-3 in
  let core ?control ~pool_stats () =
    Probe.span "serverless.run_open_loop" (fun () ->
        Serverless.run_open_loop ?control ~gen ~service_rng
          ~duration:cfg.Serverless.duration
          ~concurrency:cfg.Serverless.concurrency
          ~service_mean:cfg.Serverless.service_mean ~sample_every
          ~invoke:(fun idx service_s ->
            tick ();
            invoke vs host idx service_s)
          ~pool_stats ())
  in
  match cfg.Serverless.policy with
  | Serverless.Cold_boot -> core ~pool_stats:(fun () -> (0, 0)) ()
  | Serverless.Container -> invalid_arg "Workload.node: containers are not benchmarked"
  | Serverless.Warm_pool ->
      let a = cfg.Serverless.autoscaler in
      let pool_target () = Vmm.pool_target host fn_image ~nics:0 ~disks:0 in
      let set_target t =
        Probe.span "vmm.set_pool_target" (fun () ->
            Vmm.set_pool_target host fn_image ~nics:0 ~disks:0 t)
      in
      let pool_stats () = Vmm.pool_stats host fn_image ~nics:0 ~disks:0 in
      Probe.span "serverless.warm_pool" (fun () ->
          Serverless.warm_pool host ~target:a.Serverless.min_target);
      let hits0, takes0 = pool_stats () in
      let peak = ref (pool_target ()) in
      let idle = ref 0 in
      let decide depth =
        let target = pool_target () in
        if depth > cfg.Serverless.concurrency && target < a.Serverless.max_target
        then begin
          idle := 0;
          let target' = min a.Serverless.max_target (max 1 (2 * target)) in
          set_target target';
          Probe.span "vmm.prefill_pool" (fun () ->
              Vmm.prefill_pool host fn_image ~nics:0 ~disks:0);
          if target' > !peak then peak := target'
        end
        else if depth = 0 then begin
          incr idle;
          if !idle >= a.Serverless.idle_rounds && target > a.Serverless.min_target
          then begin
            idle := 0;
            set_target (max a.Serverless.min_target (target / 2))
          end
        end
        else idle := 0
      in
      let stats =
        core
          ~control:(a.Serverless.interval, decide)
          ~pool_stats:(fun () ->
            let hits, takes = pool_stats () in
            (hits - hits0, takes - takes0))
          ()
      in
      { stats with Serverless.peak_target = !peak }

(* The calibrated serverless cell: Poisson arrivals at [rate] for
   [requests] requests, 1 ms mean minipython service, 12 slots. *)
let serverless_config ~policy ~requests ~seed =
  let duration = float_of_int requests /. rate in
  {
    (Serverless.default_config ~arrival:(Arrival.Poisson { rate }) ~duration policy)
    with
    Serverless.seed;
    autoscaler = { Serverless.default_autoscaler with min_target = pool_min };
  }

let stats_digest buf (s : Serverless.stats) =
  Buffer.add_string buf (Serverless.percentile_note ~label:"node" s);
  Buffer.add_string buf
    (Printf.sprintf "\nhits=%d takes=%d peak=%d\n" s.Serverless.pool_hits
       s.Serverless.pool_takes s.Serverless.peak_target);
  List.iter
    (fun (x, y) -> Buffer.add_string buf (Printf.sprintf "%h %h\n" x y))
    (Series.points s.Serverless.queue_depth)

let serverless_model (stats : Serverless.stats list) =
  let sum f = List.fold_left (fun a s -> a + f s) 0 stats in
  let hits = sum (fun s -> s.Serverless.pool_hits)
  and takes = sum (fun s -> s.Serverless.pool_takes) in
  [
    ("serverless.pool_hit_rate", if takes = 0 then 0. else float_of_int hits /. float_of_int takes);
    ( "serverless.peak_pool_target",
      float_of_int (List.fold_left (fun a s -> max a s.Serverless.peak_target) 0 stats) );
    ( "serverless.queue_depth_max",
      List.fold_left (fun a s -> Float.max a (Series.max_y s.Serverless.queue_depth)) 0. stats );
  ]

(* Layers a workload never calls read 0. *)
let no_serverless =
  [ ("serverless.pool_hit_rate", 0.); ("serverless.peak_pool_target", 0.); ("serverless.queue_depth_max", 0.) ]

let no_cluster =
  [
    ("cluster.drain.sim_s", 0.); ("cluster.migration_success_ratio", 0.);
    ("cluster.migrations_per_op", 0.); ("net.packets_per_op", 0.);
  ]

let serverless_checks (stats : Serverless.stats list) =
  List.concat
    (List.mapi
       (fun h (s : Serverless.stats) ->
         if s.Serverless.completed + s.Serverless.failures = s.Serverless.requests
         then []
         else
           [
             Printf.sprintf "host %d: completed %d + failures %d <> requests %d" h
               s.Serverless.completed s.Serverless.failures s.Serverless.requests;
           ])
       stats)

let leak_check h host ~before =
  match Vmm.check_leak host ~before with
  | Ok () -> []
  | Error e -> [ Printf.sprintf "host %d leaked: %s" h e ]

(* ------------------------------------------------------------------ *)
(* serverless-warm: the 4-host LightVM fleet, one host per partition. *)

let fleet = 4
let lookahead = Switch.default_latency

(* Host [h]'s work runs in partition [h + 1]; block in partition 0
   until every host is done. Dispatch and completion each cost one
   switch hop. *)
let fan_out work =
  let all_done = Engine.Ivar.create () in
  let remaining = ref fleet in
  for h = 0 to fleet - 1 do
    Engine.spawn_in ~name:(Printf.sprintf "host-%d" h) ~partition:(h + 1)
      ~delay:lookahead (fun () ->
        work h;
        Engine.post ~partition:0 ~delay:lookahead (fun () ->
            decr remaining;
            if !remaining = 0 then Engine.Ivar.fill all_done ()))
  done;
  Engine.Ivar.read all_done

type fleet_image = Engine.saved * (Vmm.t * Vmm.resources) array

let warm_setup () =
  let nodes = Array.make fleet None in
  let _, saved =
    Engine.run_partitioned_capture ~jobs:1 ~lookahead ~partitions:fleet (fun () ->
        fan_out (fun h ->
            let host = Vmm.create ~host_id:h () in
            let before = Vmm.resources host in
            Probe.span "serverless.warm_pool" (fun () ->
                Serverless.warm_pool host ~target:pool_min);
            nodes.(h) <- Some (host, before));
        Engine.stop ())
  in
  let bytes = freeze ((saved, Array.map Option.get nodes) : fleet_image) in
  let (_ : fleet_image) = thaw bytes in
  bytes

(* Retire a pool for good: a refill in flight when the target drops
   still lands its shell, so retire again once it has. *)
let retire host =
  Vmm.set_pool_target host fn_image ~nics:0 ~disks:0 0;
  Engine.sleep 1.;
  Vmm.set_pool_target host fn_image ~nics:0 ~disks:0 0

let warm_round ~seed ~variant ~size:requests ~tick ~finish bytes =
  let ((saved, nodes) : fleet_image) = thaw bytes in
  let per = max 1 (requests / fleet) in
  let r = rng ~seed ~variant 1 in
  let seeds = Array.init fleet (fun _ -> Rng.int64 r) in
  let vss = Array.init fleet (fun _ -> vm_stats ()) in
  let slots = Array.make fleet None in
  let deltas = Array.make fleet [||] in
  let errors = Array.make fleet [] in
  let t_sim = ref 0. in
  ignore
    (Engine.resume ~jobs:1 saved (fun () ->
         let t0 = Engine.now () in
         fan_out (fun h ->
             let host = fst nodes.(h) in
             let c0 = host_counters host in
             let cfg =
               serverless_config ~policy:Serverless.Warm_pool ~requests:per
                 ~seed:seeds.(h)
             in
             slots.(h) <- Some (node ~vs:vss.(h) ~tick cfg host);
             deltas.(h) <- counters_delta ~before:c0 ~after:(host_counters host));
         t_sim := Engine.now () -. t0;
         finish ();
         fan_out (fun h ->
             let host, before = nodes.(h) in
             retire host;
             errors.(h) <- leak_check h host ~before);
         Engine.stop ()));
  let stats = Array.to_list (Array.map Option.get slots) in
  let lat = Quantiles.create () in
  List.iter (fun s -> Quantiles.merge_into lat ~src:s.Serverless.latency) stats;
  let buf = Buffer.create 4096 in
  List.iter (stats_digest buf) stats;
  let ops = List.fold_left (fun a s -> a + s.Serverless.requests) 0 stats in
  let vs = merge_vm_stats (Array.to_list vss) in
  add_quantiles buf vs.create_sim;
  let cores = Cpu.ncores (Xen.cpu (Vmm.xen (fst nodes.(0)))) in
  {
    ops;
    failed = List.fold_left (fun a s -> a + s.Serverless.failures) 0 stats;
    sim = lat;
    sim_elapsed = !t_sim;
    digest = digest_of buf;
    errors = serverless_checks stats @ List.concat (Array.to_list errors);
    model =
      serverless_model stats @ no_cluster @ vm_model vs
      @ counter_model ~ops ~hosts:fleet ~cores ~elapsed:!t_sim
          (sum_counters (Array.to_list deltas));
  }

(* ------------------------------------------------------------------ *)
(* Single chaos [XS] host (serverless-cold, create-dense). The warm-up
   create+boot+delete materialises the store directories the first
   creation leaves behind, so the resource snapshot taken after it is
   what a leak-free workload returns to. *)

type host_image = Engine.saved * Vmm.t * Vmm.resources

let single_setup ~image ~nics () =
  let out = ref None in
  let _, saved =
    Engine.run_capture (fun () ->
        let host = Vmm.create ~mode:Mode.chaos_xs () in
        (match Vmm.vm_create host (Vmm.vm_request ~name:"warm-up" ~nics ~disks:0 image) with
        | Error e -> failwith ("warm-up: " ^ Vmm.error_to_string e)
        | Ok vi ->
            ignore (Vmm.vm_boot host ~domid:vi.Vmm.vi_domid);
            ignore (Vmm.vm_delete host ~domid:vi.Vmm.vi_domid));
        out := Some (host, Vmm.resources host))
  in
  let host, before = Option.get !out in
  let bytes = freeze ((saved, host, before) : host_image) in
  let (_ : host_image) = thaw bytes in
  bytes

let cold_setup = single_setup ~image:fn_image ~nics:0

let cold_round ~seed ~variant ~size:requests ~tick ~finish bytes =
  let ((saved, host, before) : host_image) = thaw bytes in
  let r = rng ~seed ~variant 2 in
  let cfg =
    serverless_config ~policy:Serverless.Cold_boot ~requests ~seed:(Rng.int64 r)
  in
  let vs = vm_stats () in
  let out = ref None and delta = ref [||] and errors = ref [] in
  let t_sim = ref 0. in
  ignore
    (Engine.resume saved (fun () ->
         let t0 = Engine.now () in
         let c0 = host_counters host in
         out := Some (node ~vs ~tick cfg host);
         delta := counters_delta ~before:c0 ~after:(host_counters host);
         t_sim := Engine.now () -. t0;
         finish ();
         errors := leak_check 0 host ~before;
         Engine.stop ()));
  let s = Option.get !out in
  let buf = Buffer.create 4096 in
  stats_digest buf s;
  add_quantiles buf vs.create_sim;
  let ops = s.Serverless.requests in
  let cores = Cpu.ncores (Xen.cpu (Vmm.xen host)) in
  {
    ops;
    failed = s.Serverless.failures;
    sim = s.Serverless.latency;
    sim_elapsed = !t_sim;
    digest = digest_of buf;
    errors = serverless_checks [ s ] @ !errors;
    model =
      serverless_model [ s ] @ no_cluster @ vm_model vs
      @ counter_model ~ops ~hosts:1 ~cores ~elapsed:!t_sim !delta;
  }

(* ------------------------------------------------------------------ *)
(* create-dense: daytime guests created and booted one after another on
   one chaos [XS] host, all left running, then the host image frozen
   and thawed. *)

let dense_setup = single_setup ~image:Image.daytime ~nics:1

let dense_round ~seed ~variant ~size:guests ~tick ~finish bytes =
  let ((saved, host, _) : host_image) = thaw bytes in
  let r = rng ~seed ~variant 3 in
  let vs = vm_stats () in
  let sim = Quantiles.create () in
  let failed = ref 0 and delta = ref [||] and t_sim = ref 0. in
  (* The model's create time at guest 1,000, printed beside the paper's
     Fig 9 chaos [XS] value; not gated. *)
  let at_1000 = ref 0. in
  let _, saved' =
    Engine.resume_capture saved (fun () ->
        let t0 = Engine.now () in
        let c0 = host_counters host in
        for i = 1 to guests do
          tick ();
          let t = Engine.now () in
          let req = guest_request r ~prefix:"dense" i in
          match Probe.span "vmm.vm_create" (fun () -> Vmm.vm_create host req) with
          | Error _ -> incr failed
          | Ok vi ->
              let domid = vi.Vmm.vi_domid in
              ignore (Probe.span "vmm.vm_boot" (fun () -> Vmm.vm_boot host ~domid));
              Quantiles.add sim (Engine.now () -. t);
              record_counters vs host domid;
              if i = 1000 then
                match Vmm.vm_counters host ~domid with
                | Ok c -> at_1000 := 1e3 *. c.Vmm.vc_create_s
                | Error _ -> ()
        done;
        delta := counters_delta ~before:c0 ~after:(host_counters host);
        t_sim := Engine.now () -. t0)
  in
  let image = freeze ((saved', host) : Engine.saved * Vmm.t) in
  let (_, host') : Engine.saved * Vmm.t = thaw image in
  finish ();
  let errors =
    (if !failed = 0 then [] else [ Printf.sprintf "%d of %d creations failed" !failed guests ])
    @
    if Vmm.vm_count host' = guests - !failed then []
    else [ Printf.sprintf "thawed image holds %d guests, expected %d" (Vmm.vm_count host') (guests - !failed) ]
  in
  let buf = Buffer.create 4096 in
  add_quantiles buf sim;
  add_quantiles buf vs.create_sim;
  Array.iter (fun s -> Buffer.add_string buf (Printf.sprintf "%h\n" s)) vs.breakdown;
  Buffer.add_string buf (Printf.sprintf "image=%d\n" (String.length image));
  let cores = Cpu.ncores (Xen.cpu (Vmm.xen host)) in
  {
    ops = guests;
    failed = !failed;
    sim;
    sim_elapsed = !t_sim;
    digest = digest_of buf;
    errors;
    model =
      no_serverless @ no_cluster @ vm_model vs
      @ [ ("vmm.vm_create.sim_ms_at_guest_1000", !at_1000) ]
      @ counter_model ~ops:guests ~hosts:1 ~cores ~elapsed:!t_sim !delta;
  }

(* ------------------------------------------------------------------ *)
(* cluster-drain: 100 chaos [XS] hosts in 4 racks on the single-heap
   engine, spread placement; launch and boot guests, drain host 0,
   rebalance, then tear everything down for the leak check. *)

let cluster_hosts = 100
let cluster_racks = 4

type cluster_image = Engine.saved * Cluster.t * Vmm.resources

let cluster_setup () =
  let out = ref None in
  let _, saved =
    Engine.run_capture (fun () ->
        let c =
          Cluster.create ~hosts:cluster_hosts ~racks:cluster_racks
            ~mode:Mode.chaos_xs ~policy:Scheduler.Spread ()
        in
        out := Some (c, Cluster.resources c))
  in
  let c, before = Option.get !out in
  let bytes = freeze ((saved, c, before) : cluster_image) in
  let (_ : cluster_image) = thaw bytes in
  bytes

let cluster_round ~seed ~variant ~size:guests ~tick ~finish bytes =
  let ((saved, c, before) : cluster_image) = thaw bytes in
  let r = rng ~seed ~variant 4 in
  let vs = vm_stats () in
  let sim = Quantiles.create () in
  let failed = ref 0 and errors = ref [] and t_sim = ref 0. in
  let moves = ref [] and delta = ref [||] and fwd = ref 0 in
  ignore
    (Engine.resume saved (fun () ->
         let t0 = Engine.now () in
         let counters () = sum_counters (List.map host_counters (Cluster.hosts c)) in
         let c0 = counters () and f0 = Switch.forwarded (Cluster.switch c) in
         for i = 1 to guests do
           tick ();
           let t = Engine.now () in
           let req = guest_request r ~prefix:"guest" i in
           match Probe.span "cluster.launch" (fun () -> Cluster.launch c req) with
           | Error _ -> incr failed
           | Ok pl ->
               let host = Cluster.host c pl.Cluster.pl_host in
               let domid = pl.Cluster.pl_vm.Vmm.vi_domid in
               ignore (Probe.span "vmm.vm_boot" (fun () -> Vmm.vm_boot host ~domid));
               Quantiles.add sim (Engine.now () -. t);
               record_counters vs host domid
         done;
         let drain = Probe.span "cluster.drain" (fun () -> Cluster.drain c ~host:0) in
         let reb = Probe.span "cluster.rebalance" (fun () -> Cluster.rebalance c ()) in
         moves := [ drain; reb ];
         delta := counters_delta ~before:c0 ~after:(counters ());
         fwd := Switch.forwarded (Cluster.switch c) - f0;
         t_sim := Engine.now () -. t0;
         finish ();
         List.iter
           (fun host ->
             List.iter
               (fun (vi : Vmm.vm_info) -> ignore (Vmm.vm_delete host ~domid:vi.Vmm.vi_domid))
               (Vmm.vm_list host))
           (Cluster.hosts c);
         (match Cluster.check_leak c ~before with
         | Ok () -> ()
         | Error e -> errors := [ "cluster leaked: " ^ e ]);
         Engine.stop ()));
  let sum f = List.fold_left (fun a m -> a + f m) 0 !moves in
  let attempted = sum (fun m -> m.Cluster.mv_attempted)
  and moved = sum (fun m -> m.Cluster.mv_moved)
  and lost = sum (fun m -> m.Cluster.mv_lost)
  and stranded = sum (fun m -> m.Cluster.mv_stranded) in
  let drain = List.hd !moves in
  let buf = Buffer.create 4096 in
  add_quantiles buf sim;
  List.iter
    (fun m ->
      Buffer.add_string buf
        (Printf.sprintf "moves %d %d %d %d %h\n" m.Cluster.mv_attempted m.Cluster.mv_moved
           m.Cluster.mv_lost m.Cluster.mv_stranded m.Cluster.mv_seconds))
    !moves;
  let ops = guests + attempted in
  let cores = Cpu.ncores (Xen.cpu (Vmm.xen (Cluster.host c 0))) in
  {
    ops;
    failed = !failed + lost + stranded;
    sim;
    sim_elapsed = !t_sim;
    digest = digest_of buf;
    errors = !errors;
    model =
      [
        ("cluster.drain.sim_s", drain.Cluster.mv_seconds);
        ( "cluster.migration_success_ratio",
          if attempted = 0 then 0. else float_of_int moved /. float_of_int attempted );
        ("cluster.migrations_per_op", float_of_int attempted /. float_of_int ops);
        ("net.packets_per_op", float_of_int !fwd /. float_of_int ops);
      ]
      @ no_serverless @ vm_model vs
      @ counter_model ~ops ~hosts:cluster_hosts ~cores ~elapsed:!t_sim !delta;
  }

(* ------------------------------------------------------------------ *)

type t = {
  name : string;
  size : int;  (** requests or guests per round at scale 1 *)
  variants : int;
      (** rounds cycle through this many seeded input variants, and the
          simulated metrics pool one round of each: every workload has
          at least 10,000 samples for its p99.9 *)
  setup : unit -> string;
  setups : int;  (** set-ups per batch, about 30 ms of them *)
  round :
    seed:int ->
    variant:int ->
    size:int ->
    tick:(unit -> unit) ->
    finish:(unit -> unit) ->
    string ->
    round;
      (** [tick] is called as each request is dispatched or each guest
          is created or launched, the same calls in every round of one
          input; [finish] when the measured phase ends *)
}

let all =
  [
    { name = "serverless-warm"; size = 30_000; variants = 4; setup = warm_setup; setups = 160; round = warm_round };
    { name = "serverless-cold"; size = 30_000; variants = 4; setup = cold_setup; setups = 1200; round = cold_round };
    { name = "create-dense"; size = 10_000; variants = 1; setup = dense_setup; setups = 450; round = dense_round };
    { name = "cluster-drain"; size = 3_500; variants = 3; setup = cluster_setup; setups = 4; round = cluster_round };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
