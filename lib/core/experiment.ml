module Engine = Lightvm_sim.Engine
module Pool = Lightvm_sim.Pool
module Rng = Lightvm_sim.Rng
module Fault = Lightvm_sim.Fault
module Cpu = Lightvm_sim.Cpu
module Series = Lightvm_metrics.Series
module Table = Lightvm_metrics.Table
module Params = Lightvm_hv.Params
module Xen = Lightvm_hv.Xen
module Image = Lightvm_guest.Image
module Guest = Lightvm_guest.Guest
module Mode = Lightvm_toolstack.Mode
module Vmconfig = Lightvm_toolstack.Vmconfig
module Create = Lightvm_toolstack.Create
module Toolstack = Lightvm_toolstack.Toolstack
module Checkpoint = Lightvm_toolstack.Checkpoint
module Migrate = Lightvm_toolstack.Migrate
module Snap = Lightvm_sim.Checkpoint
module Vmm = Lightvm_cluster.Vmm
module Scheduler = Lightvm_cluster.Scheduler
module Cluster = Lightvm_cluster.Cluster
module Switch = Lightvm_net.Switch
module Machine = Lightvm_container.Machine
module Docker = Lightvm_container.Docker
module Process = Lightvm_container.Process
module Layers = Lightvm_container.Layers
module Syscalls = Lightvm_workloads.Syscalls
module Firewall = Lightvm_workloads.Firewall
module Jit = Lightvm_workloads.Jit
module Tls_term = Lightvm_workloads.Tls_term
module Lambda = Lightvm_workloads.Lambda
module Serverless = Lightvm_serverless.Serverless
module Arrival = Lightvm_serverless.Arrival
module Quantiles = Lightvm_metrics.Quantiles

type labelled = {
  label : string;
  series : Series.t;
}

let ms x = x *. 1e3

let mk label unit_label = Series.create ~unit_label ~name:label ()

(* ------------------------------------------------------------------ *)
(* Running simulations, partitioned or not.

   The multi-host families (cluster, the partitioned scale row) model
   one partition per host: host [i] owns partition [i + 1], partition 0
   is the control plane. The conservative-sync lookahead is the modeled
   top-of-rack switch latency — every cross-partition interaction in
   the model is a network hop, so it always carries at least the
   lookahead of simulated delay and [Engine.post] never rejects it.

   [`None] runs the *same* workload on one heap: partition 0 alone,
   under an infinite lookahead, where every [spawn_in]/[post] targets
   partition 0 and so is an [after] with the same delay. Per-host
   state is disjoint and cross-host effects travel only via switch
   deliveries and completion posts, so the two modes — and any [jobs]
   count — produce bit-identical series (pinned in
   test/test_partition.ml). *)

type partition = [ `Host | `None ]

let partition_name = function `Host -> "host" | `None -> "none"

let partition_of_string = function
  | "host" -> Ok `Host
  | "none" -> Ok `None
  | s ->
      Error
        (Printf.sprintf "unknown partition mode %S (expected host or none)" s)

(* The settings every experiment, image and suffix reads, as a front
   end passes them. The registry fills in an experiment's own default
   -n; a fault family's built-in spec stands in for [spec = None]. *)
type args = {
  n : int option;
  partition : partition;
  sim_jobs : int;
  spec : Fault.spec option;
  fault_seed : int64;
}

let default_args =
  { n = None; partition = `Host; sim_jobs = 1; spec = None; fault_seed = 42L }

(* The scale of an experiment that declares a default -n. *)
let n_of (a : args) = Option.get a.n

let lookahead = Switch.default_latency

(* Where a simulation runs: [`Host] gives each of [hosts] simulated
   hosts its own partition, windows run on up to [sim_jobs] cores;
   [`None] (and [single_heap], the layout of every one-host body) runs
   on partition 0 alone. *)
type layout = {
  partition : partition;
  sim_jobs : int;
  hosts : int;
}

let single_heap = { partition = `None; sim_jobs = 1; hosts = 0 }

let hosts_layout (a : args) hosts =
  { partition = a.partition; sim_jobs = a.sim_jobs; hosts }

(* The one way this module runs a simulation. [f] is the main process
   of a fresh simulation laid out by [layout] — or, with [from], of a
   thawed image resumed on its own partitioning — and the simulation
   stops once [f] returns: guests with periodic background load would
   otherwise keep the event loop alive forever. With [capture] (fresh
   runs only: an image is always built from the root of a family) the
   stopped state is harvested too, ready to freeze. *)
let run_main ?from ~capture layout f =
  let result = ref None in
  let main () =
    result := Some (f ());
    Engine.stop ()
  in
  let jobs = layout.sim_jobs in
  let lookahead, partitions =
    match layout.partition with
    | `Host -> (lookahead, layout.hosts)
    | `None -> (infinity, 0)
  in
  let saved =
    match from with
    | Some saved ->
        ignore (Engine.resume ~jobs saved main);
        None
    | None when capture ->
        Some
          (snd
             (Engine.run_partitioned_capture ~jobs ~lookahead ~partitions main))
    | None ->
        ignore (Engine.run_partitioned ~jobs ~lookahead ~partitions main);
        None
  in
  match !result with
  | Some r -> (r, saved)
  | None -> failwith "simulation did not complete"

let sim ?(layout = single_heap) ?from f =
  fst (run_main ?from ~capture:false layout f)

let capture layout f =
  let r, saved = run_main ~capture:true layout f in
  (Option.get saved, r)

(* Fan out one process per host — host [h] in its own partition when
   the running simulation has host partitions, fresh or resumed, all on
   partition 0 otherwise — and block (in partition 0) until all
   complete. Dispatch and the completion notification each model one
   switch hop, identical in both partition modes. *)
let fan_out_hosts hosts work =
  let partitioned = Engine.partition_count () > 0 in
  let all_done = Engine.Ivar.create () in
  let remaining = ref hosts in
  for h = 0 to hosts - 1 do
    Engine.spawn_in
      ~name:(Printf.sprintf "host-%d" h)
      ~partition:(if partitioned then h + 1 else 0)
      ~delay:lookahead
      (fun () ->
        work h;
        Engine.post ~partition:0 ~delay:lookahead (fun () ->
            decr remaining;
            if !remaining = 0 then Engine.Ivar.fill all_done ()))
  done;
  if hosts > 0 then Engine.Ivar.read all_done

(* ------------------------------------------------------------------ *)
(* Vmm-backed lifecycle helpers.

   Every VM lifecycle operation in the experiment bodies flows through
   the cluster library's Vmm API (the public lifecycle surface). The
   helpers reproduce the measurement arithmetic of the original inline
   implementations exactly — t0 / now-.t0 / now-.t0-.t_create — so the
   digest-pinned renders are bit-identical to the pre-API code. A VM is
   named by its domid, the key of the host's registry. *)

let vm_create_exn host ?name ?nics ?disks image =
  match Vmm.vm_create host (Vmm.vm_request ?name ?nics ?disks image) with
  | Ok vi -> vi.Vmm.vi_domid
  | Error e -> failwith (Vmm.error_to_string e)

(* Create a VM and block until its guest is up; its domid. *)
let launch host ?name ?nics ?disks image =
  let domid = vm_create_exn host ?name ?nics ?disks image in
  ignore (Vmm.vm_boot host ~domid);
  domid

(* [Ok (domid, create_seconds, boot_seconds)], or the creation's
   error. *)
let try_launch_timed host ?name ?nics ?disks image =
  let t0 = Engine.now () in
  match Vmm.vm_create host (Vmm.vm_request ?name ?nics ?disks image) with
  | Error _ as e -> e
  | Ok vi ->
      let domid = vi.Vmm.vi_domid in
      let t_create = Engine.now () -. t0 in
      ignore (Vmm.vm_boot host ~domid);
      let t_boot = Engine.now () -. t0 -. t_create in
      Ok (domid, t_create, t_boot)

let launch_timed host ?name ?nics ?disks image =
  match try_launch_timed host ?name ?nics ?disks image with
  | Ok timed -> timed
  | Error e -> failwith (Vmm.error_to_string e)

let retire host domid = ignore (Vmm.vm_delete host ~domid)

(* ------------------------------------------------------------------ *)
(* Job decomposition.

   Every experiment is a list of jobs; each job is one self-contained
   simulation (or pure computation) producing a [piece], and the
   experiment's output is the pieces merged in job order. Jobs never
   share state — each runs its own [Engine.run] with explicit Rng
   seeds — so a job's piece is the same whether it runs on the calling
   domain or a Pool worker, and merged output is bit-identical whatever
   the [jobs] count. *)

type piece = {
  p_series : labelled list;
  p_tables : Table.t list;
  p_notes : string list;
}

let piece ?(series = []) ?(tables = []) ?(notes = []) () =
  { p_series = series; p_tables = tables; p_notes = notes }

let piece_concat pieces =
  {
    p_series = List.concat_map (fun p -> p.p_series) pieces;
    p_tables = List.concat_map (fun p -> p.p_tables) pieces;
    p_notes = List.concat_map (fun p -> p.p_notes) pieces;
  }

type job = string * (unit -> piece)

(* ------------------------------------------------------------------ *)
(* Snapshot families.

   Every plan job runs its family unbroken, in one simulation. Seven
   families also name the state their suffix starts from as an image:
   the CLI's [snapshot] freezes it to a file and [resume] runs the
   family's suffix from that file in a later process ([prefixes] and
   [resume_from_file] at the end of this file). A family is declared
   next to its body and listed by the experiment that owns it: its
   [images], sized and laid out by the args, and one [suffix] that
   rebuilds the rest of the run from an image's root and renders it.
   [img_prefix] runs inside a simulation laid out by [img_layout] and
   returns the model root ['root] the suffix continues from. The text
   of [img_key] before ':' is the family's [name]. The one [suffix]
   drives both ways to run it: unbroken (the prefix, then the suffix on
   its root, in one simulation) and from bytes (thaw, then the suffix in
   the resumed simulation), and the thaw decodes at the root type of
   the family whose suffix consumes it. *)

type 'root image = {
  img_key : string;
  img_describe : string;
  img_layout : layout;
  img_prefix : unit -> 'root;
}

type family =
  | Family : {
      name : string;
      images : args -> 'root image list;
      suffix : args -> 'root -> piece;
    }
      -> family

(* An image's prefix and then [suffix] on its root, in one simulation
   laid out by the image: the unbroken twin of a suffix resumed from
   the image's bytes. *)
let unbroken img suffix =
  sim ~layout:img.img_layout (fun () -> suffix (img.img_prefix ()))

(* The job of an experiment whose run is its family's image and suffix,
   with the job's own args: what [resume] runs from the image's bytes. *)
let image_job label (Family f) a : job =
  ( label,
    fun () ->
      piece_concat
        (List.map (fun img -> unbroken img (f.suffix a)) (f.images a)) )

(* ------------------------------------------------------------------ *)
(* Fig 1 *)

let fig1_syscall_growth () =
  let table =
    Table.create ~title:"Fig 1: Linux syscall API growth (x86_32)"
      ~columns:[ "year"; "release"; "syscalls" ]
  in
  List.iter
    (fun p ->
      Table.add_row table
        [ string_of_int p.Syscalls.year; p.Syscalls.version;
          string_of_int p.Syscalls.syscalls ])
    Syscalls.data;
  let slope = Syscalls.growth_per_year () in
  piece ~tables:[ table ]
    ~notes:[ Printf.sprintf "growth: %.1f syscalls/year" slope ]
    ()

(* ------------------------------------------------------------------ *)
(* Fig 2 *)

let fig2_sizes_mb = [ 0.; 50.; 100.; 200.; 400.; 600.; 800.; 1000. ]

let fig2_boot_vs_image_size () =
  let series = mk "fig2-boot-vs-image-size" "ms" in
  sim (fun () ->
      let host = Vmm.create ~mode:Mode.lightvm () in
      List.iter
        (fun extra ->
          let image = Image.with_inflated_image Image.daytime ~extra_mb:extra in
          let domid, t_create, t_boot =
            launch_timed host image
          in
          Series.add series ~x:(Image.daytime.Image.disk_mb +. extra)
            ~y:(ms (t_create +. t_boot));
          retire host domid)
        fig2_sizes_mb);
  piece
    ~series:[ { label = "daytime create+boot vs image size"; series } ]
    ()

(* ------------------------------------------------------------------ *)
(* Fig 4 *)

let vm_instantiation_series ~mode ~image ~nics ~disks ~n ~label_prefix =
  let create_series = mk (label_prefix ^ " create") "ms" in
  let boot_series = mk (label_prefix ^ " boot") "ms" in
  sim (fun () ->
      let host = Vmm.create ~mode () in
      if mode.Mode.split then Vmm.prefill_pool host image ~nics ~disks;
      for i = 1 to n do
        let _vm, t_create, t_boot =
          launch_timed host ~nics ~disks image
        in
        Series.add create_series ~x:(float_of_int i) ~y:(ms t_create);
        Series.add boot_series ~x:(float_of_int i) ~y:(ms t_boot)
      done);
  [
    { label = label_prefix ^ " Create"; series = create_series };
    { label = label_prefix ^ " Boot"; series = boot_series };
  ]

let docker_series ~platform ~image ~n ~label =
  let series = mk (label ^ " run") "ms" in
  sim (fun () ->
      let machine = Machine.create ~platform () in
      let engine = Docker.create machine in
      (try
         for i = 1 to n do
           let t0 = Engine.now () in
           match Docker.run engine ~image () with
           | Ok _ ->
               Series.add series ~x:(float_of_int i)
                 ~y:(ms (Engine.now () -. t0))
           | Error _ -> raise Exit
         done
       with Exit -> ()));
  { label; series }

let process_series ~n =
  let series = mk "process create" "ms" in
  sim (fun () ->
      let machine = Machine.create () in
      let procs = Process.create machine ~rng:(Rng.create 7L) in
      for i = 1 to n do
        let t0 = Engine.now () in
        Process.fork_exec procs ();
        Series.add series ~x:(float_of_int i)
          ~y:(ms (Engine.now () -. t0))
      done);
  { label = "Process Create"; series }

let fig4_jobs a : job list =
  let n = n_of a in
  [
    ( "fig4/debian",
      fun () ->
        piece
          ~series:
            (vm_instantiation_series ~mode:Mode.xl ~image:Image.debian
               ~nics:1 ~disks:1 ~n ~label_prefix:"Debian")
          () );
    ( "fig4/tinyx",
      fun () ->
        piece
          ~series:
            (vm_instantiation_series ~mode:Mode.xl ~image:Image.tinyx
               ~nics:1 ~disks:0 ~n ~label_prefix:"Tinyx")
          () );
    ( "fig4/minios",
      fun () ->
        piece
          ~series:
            (vm_instantiation_series ~mode:Mode.xl ~image:Image.daytime
               ~nics:1 ~disks:0 ~n ~label_prefix:"MiniOS")
          () );
    ( "fig4/docker",
      fun () ->
        piece
          ~series:
            [
              docker_series ~platform:Params.xeon_e5_1630
                ~image:Layers.micropython_image ~n ~label:"Docker Run";
            ]
          () );
    ("fig4/process", fun () -> piece ~series:[ process_series ~n ] ());
  ]

(* ------------------------------------------------------------------ *)
(* Fig 5 *)

(* The breakdown is sampled at the first guest and every
   [fig5_sample]th. *)
let fig5_sample = 10

(* One series per creation-time category, in [Vmm.vm_counters]'s
   canonical order. *)
let fig5_breakdown a () =
  let n = n_of a in
  let series =
    List.map
      (fun cat ->
        let label = Create.category_name cat in
        { label; series = mk ("fig5 " ^ label) "ms" })
      Create.categories
  in
  sim (fun () ->
      let host = Vmm.create ~mode:Mode.xl () in
      for i = 1 to n do
        let domid, _, _ =
          launch_timed host ~nics:1 ~disks:1 Image.debian
        in
        if i mod fig5_sample = 0 || i = 1 then
          match Vmm.vm_counters host ~domid with
          | Error e -> failwith (Vmm.error_to_string e)
          | Ok vc ->
              List.iter2
                (fun { series; _ } (_, seconds) ->
                  Series.add series ~x:(float_of_int i) ~y:(ms seconds))
                series vc.Vmm.vc_breakdown
      done);
  piece ~series ()

(* ------------------------------------------------------------------ *)
(* Fig 9 *)

let fig9_mode ~n mode =
  let label = Mode.name mode in
  let series = mk ("fig9 " ^ label) "ms" in
  sim (fun () ->
      let host = Vmm.create ~mode () in
      if mode.Mode.split then
        Vmm.prefill_pool host Image.daytime ~nics:1 ~disks:0;
      for i = 1 to n do
        let _vm, t_create, t_boot =
          launch_timed host ~nics:1 Image.daytime
        in
        Series.add series ~x:(float_of_int i)
          ~y:(ms (t_create +. t_boot))
      done);
  { label; series }

let fig9_jobs a : job list =
  let n = n_of a in
  List.map
    (fun mode ->
      ( "fig9/" ^ Mode.name mode,
        fun () -> piece ~series:[ fig9_mode ~n mode ] () ))
    Mode.all_modes

(* ------------------------------------------------------------------ *)
(* Scale: the Fig 9/14 creation sweeps pushed to 10,000 guests *)

(* The paper stops its creation sweeps at 1000 guests; this family
   extends them to the simulator's design target of 10,000 to show the
   host-side data structures (indexed watch dispatch, persistent
   transaction snapshots, typed paths) stay near-linear while the
   *modeled* costs keep their figure-9 shapes exactly.

   xl is capped at [scale_xl_cap]: the modeled libxl protocol performs
   [Costs.xl_name_scans] full scans of /local/domain per creation, each
   one directory request plus one read per existing domain — Θ(N²)
   simulated round trips, ~2.5x10^8 messages at N = 10^4. That
   quadratic is the paper's mechanism and must stay real, so the trend
   is established by 2000 guests and chaos [XS] (same store, same
   watch registrations, linear message count) carries the full-10k
   XenStore stress instead. *)

let scale_default_counts = [ 2000; 5000; 10_000 ]
let scale_xl_cap = 2000
let scale_modes = [ Mode.xl; Mode.chaos_xs; Mode.chaos_noxs ]

(* The counts of a run to [n] guests; the default counts without -n. *)
let scale_counts = function
  | None -> scale_default_counts
  | Some n -> (
      match List.filter (fun c -> c <= n) scale_default_counts with
      | [] -> [ n ] (* small-n runs (tests) still cover every mode *)
      | counts -> counts)

(* One simulation per mode records every count's curve in a single
   pass: the run to a smaller count is an exact event prefix of the run
   to the largest (same host, same creation sequence, deterministic),
   so each count's series is bit-identical to what a separate
   simulation of exactly that count would produce — for one set of
   creations instead of one per count (10k instead of 17k at the
   default counts). Sampling is per count: ~20 points plus first and
   last, as before. *)

(* Create guests [from+1 .. upto] on [host], recording create+boot
   latency per guest: the creation loop of every scale body. *)
let scale_create_range host lat ~from ~upto =
  for i = from + 1 to upto do
    let _vm, t_create, t_boot = launch_timed host ~nics:1 Image.daytime in
    lat.(i - 1) <- t_create +. t_boot
  done

(* Grow a scale root — a host and one latency per guest it holds — to
   [upto] guests. *)
let scale_grow ~upto (host, lat) =
  let from = Array.length lat in
  let grown = Array.make upto nan in
  Array.blit lat 0 grown 0 from;
  scale_create_range host grown ~from ~upto;
  (host, grown)

let scale_curve_rows ~mode ~counts lat =
  List.map
    (fun count ->
      let stride = max 1 (count / 20) in
      let label = Printf.sprintf "%s/%d" (Mode.name mode) count in
      let series = mk ("scale " ^ label) "ms" in
      for i = 1 to count do
        if i = 1 || i = count || i mod stride = 0 then
          Series.add series ~x:(float_of_int i) ~y:(ms lat.(i - 1))
      done;
      { label; series })
    counts

(* One [mode] host booted to [count] guests. The root is [(host, lat)]
   — the model and one latency per guest, one marshalled value, so the
   heap thunks and the host they close over stay shared on thaw. *)
let scale_boot ~mode count () =
  let host = Vmm.create ~mode () in
  if mode.Mode.split then Vmm.prefill_pool host Image.daytime ~nics:1 ~disks:0;
  scale_grow ~upto:count (host, [||])

let scale_image ~mode count =
  {
    img_key = Printf.sprintf "scale:%s@%d" (Mode.slug mode) count;
    img_describe =
      Printf.sprintf "one %s host booted to %d daytime guests" (Mode.name mode)
        count;
    img_layout = single_heap;
    img_prefix = scale_boot ~mode count;
  }

(* One mode's merged curves: one run to the largest count. *)
let scale_mode_merged ~counts mode =
  let _, lat = sim (scale_boot ~mode (List.fold_left max 1 counts)) in
  scale_curve_rows ~mode ~counts lat

(* The partitioned row: the same total population brought up as a fleet
   of [scale_partition_hosts] identical chaos [XS] hosts, each creating
   its share concurrently in its own partition. With [`Host] the
   simulation runs on up to [sim_jobs] cores; with [`None] the same
   workload shares one heap. Either way the series is the per-round
   mean of the per-host create+boot latencies — identical in both modes
   and at any [sim_jobs] (the per-host streams never interact).

   The bring-up runs as two fan-out waves with a barrier between them;
   the wave boundary is the fleet's snapshot point, so a suffix resumed
   from the image has a well-defined unbroken twin: same barrier, same
   events, bit-identical series across the whole jobs x partition
   matrix (test/test_checkpoint.ml). *)
let scale_partition_hosts = 8

(* One wave: every host creates guests [from+1 .. upto] of its share,
   concurrently, in its own partition when the run has them. *)
let fleet_wave nodes lat ~from ~upto =
  fan_out_hosts (Array.length nodes) (fun h ->
      scale_create_range nodes.(h) lat.(h) ~from ~upto)

(* Wave 1: [hosts] hosts with the first half of their [per] guests. The
   root is [(nodes, lat)], one latency row per host. *)
let fleet_boot ~hosts ~per () =
  let nodes =
    Array.init hosts (fun i -> Vmm.create ~host_id:i ~mode:Mode.chaos_xs ())
  in
  let lat = Array.make_matrix hosts per nan in
  fleet_wave nodes lat ~from:0 ~upto:(max 1 (per / 2));
  (nodes, lat)

(* Wave 2 on a wave-1 root: the latency rows, complete. *)
let fleet_finish (nodes, lat) =
  let per = Array.length lat.(0) in
  fleet_wave nodes lat ~from:(max 1 (per / 2)) ~upto:per;
  lat

(* The fleet's wave-1 image for a run to [a]'s top count. *)
let fleet_image (a : args) =
  let layout = hosts_layout a scale_partition_hosts in
  let top = List.fold_left max 1 (scale_counts a.n) in
  let per = max 1 (top / scale_partition_hosts) in
  let part = partition_name a.partition in
  {
    img_key = Printf.sprintf "scale-fleet:%s@%d" part (layout.hosts * per);
    img_describe =
      Printf.sprintf
        "%d chaos [XS] hosts at wave 1 (%d of %d guests each, partition %s)"
        layout.hosts
        (max 1 (per / 2))
        per part;
    img_layout = layout;
    img_prefix = fleet_boot ~hosts:layout.hosts ~per;
  }

let fleet_row_render lat =
  let hosts = Array.length lat and per = Array.length lat.(0) in
  let total = hosts * per in
  let label =
    Printf.sprintf "%s x%d hosts/%d" (Mode.name Mode.chaos_xs) hosts total
  in
  let series = mk ("scale " ^ label) "ms" in
  let stride = max 1 (per / 20) in
  for j = 1 to per do
    if j = 1 || j = per || j mod stride = 0 then begin
      let sum = ref 0. in
      for h = 0 to hosts - 1 do
        sum := !sum +. lat.(h).(j - 1)
      done;
      Series.add series
        ~x:(float_of_int (j * hosts))
        ~y:(ms (!sum /. float_of_int hosts))
    end
  done;
  { label; series }

let scale_mode_counts mode counts =
  if String.equal (Mode.name mode) "xl" then
    List.filter (fun c -> c <= scale_xl_cap) counts
  else counts

let scale_jobs a : job list =
  let counts = scale_counts a.n in
  List.map
    (fun mode ->
      let counts = scale_mode_counts mode counts in
      ( Printf.sprintf "scale/%s/%s" (Mode.name mode)
          (String.concat "+" (List.map string_of_int counts)),
        fun () -> piece ~series:(scale_mode_merged ~counts mode) () ))
    scale_modes
  @ [
      ( Printf.sprintf "scale/partitioned/%d" (List.fold_left max 1 counts),
        fun () ->
          piece
            ~series:[ fleet_row_render (unbroken (fleet_image a) fleet_finish) ]
            () );
    ]

(* Resumed, a host image is extended by [n] more creations (default a
   tenth of its count) and re-rendered; a fleet image runs wave 2. *)
let scale_family =
  Family
    {
      name = "scale";
      images =
        (fun a ->
          List.concat_map
            (fun mode ->
              List.map (scale_image ~mode)
                (scale_mode_counts mode (scale_counts a.n)))
            scale_modes);
      suffix =
        (fun a ((host, prev) as root) ->
          let mode = Vmm.mode host and count = Array.length prev in
          let total = count + Option.value a.n ~default:(max 1 (count / 10)) in
          let _, lat = scale_grow ~upto:total root in
          piece
            ~series:(scale_curve_rows ~mode ~counts:[ total ] lat)
            ~notes:
              [
                Printf.sprintf "resumed %s host at %d guests, extended to %d"
                  (Mode.name mode) count total;
              ]
            ());
    }

let fleet_family =
  Family
    {
      name = "scale-fleet";
      images = (fun a -> [ fleet_image a ]);
      suffix =
        (fun _ root ->
          let lat = fleet_finish root in
          let hosts = Array.length lat and per = Array.length lat.(0) in
          piece
            ~series:[ fleet_row_render lat ]
            ~notes:
              [
                Printf.sprintf
                  "resumed fleet wave 2: %d hosts, guests %d..%d of %d each"
                  hosts
                  (max 1 (per / 2) + 1)
                  per per;
              ]
            ());
    }

(* ------------------------------------------------------------------ *)
(* Reliability (no paper figure): creation under fault injection.

   For each toolstack mode and fault multiplier, attempt [n] creations
   with the base fault spec scaled by the multiplier, and report the
   success rate plus the CDF of successful creation times. Faults draw
   only from the per-point streams seeded from [fault_seed] (see
   lib/sim/fault.ml), so a given (spec, seed) pair reproduces the exact
   same failures whatever the [--jobs] count. After every failed
   attempt the host's resource counts are compared against a snapshot
   taken just before it: a leaked domain, frame, grant, event channel,
   control page, XenStore node or watch surfaces as a "LEAK" note (the
   test suite additionally asserts there are none). *)

(* A little of everything: XenStore transaction conflicts and quota
   rejections, mid-pipeline phase failures on both the prepare and
   execute side, hotplug hangs and backend allocation failures. The
   [NoXS] column is naturally immune to the xs.* points — its creations
   never touch the store — which is part of the point. *)
let reliability_default_spec =
  "xs.eagain:0.05,xs.equota:0.005,create.phase2:0.004,create.phase4:0.004,\
   create.phase7:0.004,hotplug.hang:0.03,evtchn.alloc:0.004,gnttab.alloc:0.004"

(* The built-in fault specs, parsed once. *)
let parse_default name s =
  match Fault.parse_spec s with
  | Ok spec -> spec
  | Error m -> invalid_arg (name ^ ": " ^ m)

let reliability_spec =
  parse_default "reliability_default_spec" reliability_default_spec

let reliability_levels = [ 0.; 1.; 2.; 4. ]
let reliability_modes = [ Mode.xl; Mode.chaos_xs; Mode.chaos_noxs ]

(* Distinct per-cell stream seed, a pure function of the user-visible
   fault seed and the cell's position, so cells stay independent and
   the whole sweep is reproducible from [fault_seed] alone. *)
let reliability_cell_seed ~fault_seed mi li =
  Int64.add fault_seed (Int64.of_int (((mi + 1) * 257) + li))

(* Every cell of [mode] starts from a fresh host with one warmup
   creation launched and retired. The warmup runs outside the injector:
   the first creation on a fresh host materialises shared store
   directories (/vm, the backend kind levels) that persist for the
   host's lifetime, so resource snapshots are only stable from the
   second creation on. *)
let reliability_warm mode () =
  let host = Vmm.create ~mode () in
  retire host (launch host ~name:"rel-warmup" Image.daytime);
  host

let reliability_image mode =
  {
    img_key = "reliability:" ^ Mode.slug mode;
    img_describe =
      Printf.sprintf "one warmed-up %s host (reliability cell prefix)"
        (Mode.name mode);
    img_layout = single_heap;
    img_prefix = reliability_warm mode;
  }

(* A cell's suffix: [n] creation attempts on the warmed host under the
   spec (default [reliability_spec]) scaled to [level], rendered as the
   cell's piece. *)
let reliability_suffix (a : args) ~seed ~level host =
  let n = n_of a and spec = Option.value a.spec ~default:reliability_spec in
  let mode = Vmm.mode host in
  let label = Printf.sprintf "%s x%g" (Mode.name mode) level in
  let injector = Fault.create ~seed (Fault.scale spec level) in
  let ok = ref 0 and times = ref [] and leaks = ref [] in
  Fault.with_injector injector (fun () ->
      for i = 1 to n do
        let before = Vmm.resources host in
        let req =
          Vmm.vm_request ~name:(Printf.sprintf "rel-%d" i) Image.daytime
        in
        let t0 = Engine.now () in
        match Vmm.vm_create host req with
        | Ok vi ->
            incr ok;
            times := (Engine.now () -. t0) :: !times;
            ignore (Vmm.vm_boot host ~domid:vi.Vmm.vi_domid)
        | Error _ -> (
            match Vmm.check_leak host ~before with
            | Ok () -> ()
            | Error leaked ->
                leaks :=
                  Printf.sprintf "LEAK %s attempt %d: %s" label i leaked
                  :: !leaks)
      done);
  let cdf = mk ("reliability cdf " ^ label) "ms" in
  let success =
    mk (Printf.sprintf "reliability success %s" (Mode.name mode)) "%"
  in
  (* CDF over successful creations only: x in ms, y the percentile. *)
  let sorted = List.sort compare (List.rev !times) in
  List.iteri
    (fun i t ->
      Series.add cdf ~x:(ms t)
        ~y:(100. *. float_of_int (i + 1) /. float_of_int (max 1 !ok)))
    sorted;
  Series.add success ~x:level ~y:(100. *. float_of_int !ok /. float_of_int n);
  let fired =
    Fault.counts injector
    |> List.filter (fun (_, (_, injected)) -> injected > 0)
    |> List.map (fun (pt, (checks, injected)) ->
           Printf.sprintf "%s %d/%d" pt injected checks)
  in
  let note =
    Printf.sprintf "reliability %s: %d/%d created ok, %d faults injected%s"
      label !ok n
      (Fault.injected_total injector)
      (match fired with
      | [] -> ""
      | l -> " (" ^ String.concat ", " l ^ ")")
  in
  piece
    ~series:[ { label = "cdf " ^ label; series = cdf };
              { label = "success " ^ Mode.name mode; series = success } ]
    ~notes:(note :: List.rev !leaks)
    ()

let reliability_jobs a : job list =
  List.concat
    (List.mapi
       (fun mi mode ->
         List.mapi
           (fun li level ->
             ( Printf.sprintf "reliability/%s/x%g" (Mode.name mode) level,
               fun () ->
                 unbroken (reliability_image mode)
                   (reliability_suffix a
                      ~seed:
                        (reliability_cell_seed ~fault_seed:a.fault_seed mi li)
                      ~level) ))
           reliability_levels)
       reliability_modes)

(* Resumed, a warmed host runs one cell at the unscaled spec. *)
let reliability_family =
  Family
    {
      name = "reliability";
      images = (fun _ -> List.map reliability_image reliability_modes);
      suffix = (fun a -> reliability_suffix a ~seed:a.fault_seed ~level:1.);
    }

(* Collapse the per-cell single-point success series into one series
   per mode (points arrive in job order, i.e. ascending fault level);
   the CDF labels are unique per cell and pass through untouched. *)
let reliability_finish pieces =
  let merged = piece_concat pieces in
  let out = ref [] in
  List.iter
    (fun l ->
      match List.find_opt (fun l' -> String.equal l'.label l.label) !out with
      | Some existing ->
          List.iter
            (fun (x, y) -> Series.add existing.series ~x ~y)
            (Series.points l.series)
      | None ->
          let s =
            Series.create
              ~unit_label:(Series.unit_label l.series)
              ~name:(Series.name l.series) ()
          in
          List.iter (fun (x, y) -> Series.add s ~x ~y) (Series.points l.series);
          out := { l with series = s } :: !out)
    merged.p_series;
  { merged with p_series = List.rev !out }

(* ------------------------------------------------------------------ *)
(* Fig 10 *)

let fig10_lightvm ~vms =
  let lightvm_series = mk "fig10 LightVM" "ms" in
  sim (fun () ->
      let host =
        Vmm.create ~platform:Params.amd_opteron_6376 ~mode:Mode.lightvm ()
      in
      Vmm.prefill_pool host Image.noop_unikernel ~nics:0 ~disks:0;
      (* Create and boot guests until the host is full: the first
         creation that fails ends the series. *)
      let rec fill i =
        if i <= vms then
          match try_launch_timed host ~nics:0 Image.noop_unikernel with
          | Error _ -> ()
          | Ok (_vm, t_create, t_boot) ->
              Series.add lightvm_series ~x:(float_of_int i)
                ~y:(ms (t_create +. t_boot));
              fill (i + 1)
      in
      fill 1);
  { label = "LightVM"; series = lightvm_series }

let fig10_jobs a : job list =
  let n = n_of a in
  [
    ("fig10/lightvm", fun () -> piece ~series:[ fig10_lightvm ~vms:n ] ());
    ( "fig10/docker",
      fun () ->
        piece
          ~series:
            [
              docker_series ~platform:Params.amd_opteron_6376
                ~image:Layers.alpine_noop ~n ~label:"Docker";
            ]
          () );
  ]

(* ------------------------------------------------------------------ *)
(* Fig 11 *)

(* create+boot combined, as the paper plots boot-to-usable. *)
let fig11_total label parts =
  let combined = mk (label ^ " total") "ms" in
  (match parts with
  | [ { series = create; _ }; { series = boot; _ } ] ->
      List.iter2
        (fun (x, c) (_, b) -> Series.add combined ~x ~y:(c +. b))
        (Series.points create) (Series.points boot)
  | _ -> ());
  { label; series = combined }

let fig11_jobs a : job list =
  let n = n_of a in
  [
    ( "fig11/unikernel",
      fun () ->
        piece
          ~series:
            [
              fig11_total "Unikernel over LightVM"
                (vm_instantiation_series ~mode:Mode.lightvm
                   ~image:Image.daytime ~nics:1 ~disks:0 ~n
                   ~label_prefix:"Unikernel over LightVM");
            ]
          () );
    ( "fig11/tinyx",
      fun () ->
        piece
          ~series:
            [
              fig11_total "Tinyx over LightVM"
                (vm_instantiation_series ~mode:Mode.lightvm
                   ~image:Image.tinyx ~nics:1 ~disks:0 ~n
                   ~label_prefix:"Tinyx over LightVM");
            ]
          () );
    ( "fig11/docker",
      fun () ->
        piece
          ~series:
            [
              docker_series ~platform:Params.xeon_e5_1630
                ~image:Layers.micropython_image ~n ~label:"Docker";
            ]
          () );
  ]

(* ------------------------------------------------------------------ *)
(* Figs 12 and 13 *)

let checkpoint_modes = [ Mode.xl; Mode.chaos_xs; Mode.chaos_noxs; Mode.lightvm ]

(* Each round adds [checkpoint_batch] guests and checkpoints (or
   migrates) as many random ones. *)
let checkpoint_batch = 10

let fig12_mode ~n mode =
  let batch = checkpoint_batch in
  let label = Mode.name mode in
  let save_series = mk ("fig12a " ^ label) "ms" in
  let restore_series = mk ("fig12b " ^ label) "ms" in
  sim (fun () ->
      let host = Vmm.create ~mode () in
      if mode.Mode.split then
        Vmm.prefill_pool host Image.daytime ~nics:1 ~disks:0;
      let rng = Rng.create 33L in
      let rounds = n / batch in
      for round = 1 to rounds do
        (* Bring the population up to round*batch guests. *)
        while Vmm.vm_count host < round * batch do
          ignore (launch host Image.daytime)
        done;
        (* Checkpoint [batch] randomly chosen guests (vm.snapshot /
           vm.restore through the host's API endpoint). *)
        let victims = Array.of_list (Vmm.vm_list host) in
        Rng.shuffle rng victims;
        let victims = Array.to_list (Array.sub victims 0 batch) in
        let t0 = Engine.now () in
        let saved =
          List.map
            (fun (vm : Vmm.vm_info) ->
              match Vmm.vm_snapshot host ~domid:vm.Vmm.vi_domid with
              | Ok s -> s
              | Error e -> failwith (Vmm.error_to_string e))
            victims
        in
        let t_save = (Engine.now () -. t0) /. float_of_int batch in
        let t1 = Engine.now () in
        let restored =
          List.map
            (fun s ->
              match Vmm.vm_restore host s with
              | Ok vi -> vi
              | Error e -> failwith (Vmm.error_to_string e))
            saved
        in
        List.iter
          (fun (vi : Vmm.vm_info) ->
            ignore (Vmm.vm_boot host ~domid:vi.Vmm.vi_domid))
          restored;
        let t_restore = (Engine.now () -. t1) /. float_of_int batch in
        let x = float_of_int (round * batch) in
        Series.add save_series ~x ~y:(ms t_save);
        Series.add restore_series ~x ~y:(ms t_restore)
      done);
  ( { label; series = save_series },
    { label; series = restore_series } )

let fig12_jobs a : job list =
  let n = n_of a in
  List.map
    (fun mode ->
      ( "fig12/" ^ Mode.name mode,
        fun () ->
          let save, restore = fig12_mode ~n mode in
          piece ~series:[ save; restore ] () ))
    checkpoint_modes

let fig13_mode ~n mode =
  let batch = checkpoint_batch in
  let label = Mode.name mode in
  let series = mk ("fig13 " ^ label) "ms" in
  sim (fun () ->
      let src = Vmm.create ~mode () in
      let dst = Vmm.create ~mode () in
      if mode.Mode.split then
        Vmm.prefill_pool src Image.daytime ~nics:1 ~disks:0;
      let rng = Rng.create 44L in
      let rounds = n / batch in
      for round = 1 to rounds do
        while Vmm.vm_count src < round * batch do
          ignore (launch src Image.daytime)
        done;
        let victims = Array.of_list (Vmm.vm_list src) in
        Rng.shuffle rng victims;
        let victims = Array.to_list (Array.sub victims 0 batch) in
        let t0 = Engine.now () in
        List.iter
          (fun (vm : Vmm.vm_info) ->
            match Vmm.vm_migrate ~src ~dst ~domid:vm.Vmm.vi_domid with
            | Error e -> failwith (Vmm.error_to_string e)
            | Ok (resumed, _stats) ->
                ignore (Vmm.vm_boot dst ~domid:resumed.Vmm.vi_domid))
          victims;
        let avg = (Engine.now () -. t0) /. float_of_int batch in
        Series.add series ~x:(float_of_int (round * batch)) ~y:(ms avg)
        (* The outer while-loop replaces the migrated guests on the
           source host before the next round, as in the paper. *)
      done);
  { label; series }

let fig13_jobs a : job list =
  let n = n_of a in
  List.map
    (fun mode ->
      ( "fig13/" ^ Mode.name mode,
        fun () -> piece ~series:[ fig13_mode ~n mode ] () ))
    checkpoint_modes

(* ------------------------------------------------------------------ *)
(* Fig 14 *)

(* Memory is sampled at the first guest and every [fig14_sample]th. *)
let fig14_sample = 20

let fig14_vm_memory ~n ~image ~label =
  let series = mk ("fig14 " ^ label) "MB" in
  sim (fun () ->
      let host = Vmm.create ~mode:Mode.lightvm () in
      for i = 1 to n do
        ignore (launch host ~nics:1 image);
        if i mod fig14_sample = 0 || i = 1 then
          Series.add series ~x:(float_of_int i)
            ~y:(float_of_int (Vmm.guest_mem_kb host) /. 1024.)
      done);
  { label; series }

let fig14_docker_memory ~n =
  let series = mk "fig14 Docker" "MB" in
  sim (fun () ->
      let machine = Machine.create () in
      let engine = Docker.create machine in
      for i = 1 to n do
        (match Docker.run engine ~image:Layers.micropython_image () with
        | Ok _ -> ()
        | Error _ -> ());
        if i mod fig14_sample = 0 || i = 1 then
          Series.add series ~x:(float_of_int i)
            ~y:(float_of_int (Docker.rss_kb engine) /. 1024.)
      done);
  { label = "Docker Micropython"; series }

let fig14_process_memory ~n =
  let series = mk "fig14 process" "MB" in
  sim (fun () ->
      let machine = Machine.create () in
      let procs = Process.create machine ~rng:(Rng.create 5L) in
      for i = 1 to n do
        Process.fork_exec procs ~rss_kb:1_600 ();
        if i mod fig14_sample = 0 || i = 1 then
          Series.add series ~x:(float_of_int i)
            ~y:(float_of_int (Process.rss_kb procs) /. 1024.)
      done);
  { label = "Micropython Process"; series }

let fig14_jobs a : job list =
  let n = n_of a in
  let vm label image =
    ( "fig14/" ^ label,
      fun () -> piece ~series:[ fig14_vm_memory ~n ~image ~label ] () )
  in
  [
    vm "Debian" Image.debian;
    vm "Tinyx" Image.tinyx_micropython;
    ("fig14/docker", fun () -> piece ~series:[ fig14_docker_memory ~n ] ());
    vm "Minipython" Image.minipython;
    ("fig14/process", fun () -> piece ~series:[ fig14_process_memory ~n ] ());
  ]

(* ------------------------------------------------------------------ *)
(* Fig 15 *)

(* Utilisation is measured over a [fig15_window]-second idle window at
   the first guest and every [fig15_sample]th. *)
let fig15_sample = 50
let fig15_window = 10.

let fig15_vm_usage ~n ~image ~label =
  let series = mk ("fig15 " ^ label) "%" in
  sim (fun () ->
      let host = Vmm.create ~mode:Mode.lightvm () in
      let cpu = Xen.cpu (Vmm.xen host) in
      for i = 1 to n do
        ignore (launch host ~nics:1 image);
        if i mod fig15_sample = 0 || i = 1 then begin
          Cpu.reset_stats cpu;
          let t0 = Engine.now () in
          Engine.sleep fig15_window;
          Series.add series ~x:(float_of_int i)
            ~y:(100. *. Cpu.utilization cpu ~since:t0)
        end
      done);
  { label; series }

let fig15_docker_usage ~n =
  let series = mk "fig15 Docker" "%" in
  sim (fun () ->
      let machine = Machine.create () in
      let engine = Docker.create machine in
      let cpu = Machine.cpu machine in
      for i = 1 to n do
        (match Docker.run engine ~image:Layers.alpine_noop () with
        | Ok _ -> ()
        | Error _ -> ());
        if i mod fig15_sample = 0 || i = 1 then begin
          Cpu.reset_stats cpu;
          let t0 = Engine.now () in
          Engine.sleep fig15_window;
          Series.add series ~x:(float_of_int i)
            ~y:(100. *. Cpu.utilization cpu ~since:t0)
        end
      done);
  { label = "Docker"; series }

let fig15_jobs a : job list =
  let n = n_of a in
  let vm label image =
    ( "fig15/" ^ label,
      fun () -> piece ~series:[ fig15_vm_usage ~n ~image ~label ] () )
  in
  [
    vm "Debian" Image.debian;
    vm "Tinyx" Image.tinyx;
    vm "Unikernel" Image.noop_unikernel;
    ( "fig15/docker",
      fun () -> piece ~series:[ fig15_docker_usage ~n ] () );
  ]

(* ------------------------------------------------------------------ *)
(* Section 7: use cases *)

let fig16a_firewall () =
  let table =
    Table.create
      ~title:"Fig 16a: personal firewalls (ClickOS, 10 Mbps/user)"
      ~columns:[ "users"; "total Gbps"; "per-user Mbps"; "RTT ms" ]
  in
  List.iter
    (fun p ->
      Table.add_row table
        [
          string_of_int p.Firewall.active_users;
          Printf.sprintf "%.2f" p.Firewall.total_gbps;
          Printf.sprintf "%.1f" p.Firewall.per_user_mbps;
          Printf.sprintf "%.1f" p.Firewall.rtt_ms;
        ])
    (Firewall.capacity ~users:[ 1; 100; 250; 500; 750; 1000 ] ());
  piece ~tables:[ table ] ()

let fig16b_interval ~clients interval =
  let label = Printf.sprintf "%.0f ms" (interval *. 1e3) in
  let result =
    Jit.run
      { Jit.default_config with Jit.arrival_interval = interval; clients }
  in
  let series = mk ("fig16b " ^ label) "cdf" in
  let rtts = Quantiles.create () in
  List.iter (Quantiles.add rtts) result.Jit.rtts;
  List.iter
    (fun (rtt, frac) -> Series.add series ~x:(ms rtt) ~y:frac)
    (Quantiles.sorted_points rtts ~every:1);
  { label; series }

let fig16b_jobs a : job list =
  let clients = n_of a in
  List.map
    (fun interval ->
      ( Printf.sprintf "fig16b/%.0fms" (interval *. 1e3),
        fun () -> piece ~series:[ fig16b_interval ~clients interval ] () ))
    [ 0.010; 0.025; 0.050; 0.100 ]

let fig16c_backend backend =
  let label = Tls_term.backend_name backend in
  let series = mk ("fig16c " ^ label) "Kreq/s" in
  List.iter
    (fun (n, tput) ->
      Series.add series ~x:(float_of_int n) ~y:(tput /. 1e3))
    (Tls_term.sweep backend
       ~instances:[ 1; 5; 10; 14; 50; 100; 250; 500; 750; 1000 ]);
  { label; series }

let fig16c_jobs : job list =
  List.map
    (fun backend ->
      ( "fig16c/" ^ Tls_term.backend_name backend,
        fun () -> piece ~series:[ fig16c_backend backend ] () ))
    [ Tls_term.Bare_metal; Tls_term.Tinyx_vm; Tls_term.Unikernel ]

(* ------------------------------------------------------------------ *)
(* Figs 17 and 18 *)

(* One mode's lambda run: service-time series (Fig 17) and concurrency
   series (Fig 18). *)
let lambda_mode ~requests ~label mode =
  let result = Lambda.run { (Lambda.default_config mode) with Lambda.requests } in
  assert result.Lambda.outputs_ok;
  let service = mk ("fig17 " ^ label) "s" in
  List.iter
    (fun (i, t) -> Series.add service ~x:(float_of_int i) ~y:t)
    result.Lambda.service_times;
  let concurrency = mk ("fig18 " ^ label) "VMs" in
  List.iter
    (fun (t, c) ->
      (* Samplers start at slightly different offsets per mode; round
         to whole seconds so the series share an x grid. *)
      Series.add concurrency ~x:(Float.round t) ~y:(float_of_int c))
    result.Lambda.concurrency;
  ( { label; series = service }, { label; series = concurrency } )

let lambda_runs = [ ("chaos [XS]", Mode.chaos_xs); ("LightVM", Mode.lightvm) ]

let fig17_jobs a : job list =
  let requests = n_of a in
  List.map
    (fun (label, mode) ->
      ( "fig17/" ^ label,
        fun () ->
          let service, _ = lambda_mode ~requests ~label mode in
          piece ~series:[ service ] () ))
    lambda_runs

let fig18_jobs a : job list =
  let requests = n_of a in
  List.map
    (fun (label, mode) ->
      ( "fig18/" ^ label,
        fun () ->
          let _, concurrency = lambda_mode ~requests ~label mode in
          piece ~series:[ concurrency ] () ))
    lambda_runs

(* ------------------------------------------------------------------ *)
(* Ablations *)

(* The design choices DESIGN.md calls out, isolated:
   - oxenstored vs cxenstored (the paper's footnote: "results with
     cxenstored show much higher overheads");
   - access logging on/off ("disabling this logging would remove the
     spikes, but it would not help in improving the overall creation
     times"). *)
let ablation_variant ~n label profile =
  let series = mk ("ablation " ^ label) "ms" in
  sim (fun () ->
      let host = Vmm.create ~mode:Mode.chaos_xs ~xs_profile:profile () in
      for i = 1 to n do
        let _vm, t_create, t_boot =
          launch_timed host ~nics:1 Image.daytime
        in
        Series.add series ~x:(float_of_int i) ~y:(ms (t_create +. t_boot))
      done);
  { label; series }

let ablation_jobs a : job list =
  let n = n_of a in
  [
    ( "ablation/oxenstored",
      fun () ->
        piece
          ~series:
            [ ablation_variant ~n "oxenstored"
                Lightvm_xenstore.Xs_costs.oxenstored ]
          () );
    ( "ablation/cxenstored",
      fun () ->
        piece
          ~series:
            [ ablation_variant ~n "cxenstored"
                Lightvm_xenstore.Xs_costs.cxenstored ]
          () );
    ( "ablation/logging-off",
      fun () ->
        piece
          ~series:
            [
              ablation_variant ~n "oxenstored, logging off"
                { Lightvm_xenstore.Xs_costs.oxenstored with
                  Lightvm_xenstore.Xs_costs.logging_enabled = false };
            ]
          () );
  ]

(* Section 2's third requirement: pause/unpause as fast as container
   freeze/thaw (Amazon Lambda "freezes" and "thaws" its containers). *)
let pause_unpause () =
  let table =
    Table.create
      ~title:"Pause/unpause latency (Section 2 requirement)"
      ~columns:[ "system"; "pause ms"; "unpause ms" ]
  in
  let vm_times =
    sim (fun () ->
        let host = Vmm.create ~mode:Mode.lightvm () in
        let domid = launch host Image.daytime in
        let t0 = Engine.now () in
        (match Vmm.vm_pause host ~domid with
        | Ok () -> ()
        | Error e -> failwith ("pause failed: " ^ Vmm.error_to_string e));
        let t_pause = Engine.now () -. t0 in
        let t1 = Engine.now () in
        (match Vmm.vm_resume host ~domid with
        | Ok () -> ()
        | Error e -> failwith ("unpause failed: " ^ Vmm.error_to_string e));
        (t_pause, Engine.now () -. t1))
  in
  let container_times =
    sim (fun () ->
        let machine = Machine.create () in
        let engine = Docker.create machine in
        match Docker.run engine ~image:Layers.alpine_noop () with
        | Error _ -> failwith "docker run failed"
        | Ok c ->
            let t0 = Engine.now () in
            Docker.pause engine c;
            let t_pause = Engine.now () -. t0 in
            let t1 = Engine.now () in
            Docker.unpause engine c;
            (t_pause, Engine.now () -. t1))
  in
  let row name (p, u) =
    Table.add_row table
      [ name; Printf.sprintf "%.3f" (ms p); Printf.sprintf "%.3f" (ms u) ]
  in
  row "LightVM guest (hypercall)" vm_times;
  row "Docker container (freezer cgroup)" container_times;
  piece ~tables:[ table ] ()

let wan_migration () =
  let table =
    Table.create
      ~title:
        "Migration over a 1 Gbps / 10 ms RTT link (Section 7.1: \
         ClickOS in ~150 ms)"
      ~columns:[ "guest"; "RAM MB"; "migration ms" ]
  in
  List.iter
    (fun image ->
      let total =
        sim (fun () ->
            let mk_host host_id =
              Vmm.create ~host_id ~mode:Mode.lightvm
                ~costs:Lightvm_toolstack.Costs.wan ()
            in
            let src = mk_host 0 and dst = mk_host 1 in
            let domid = launch src ~name:"wan-guest" image in
            match Vmm.vm_migrate ~src ~dst ~domid with
            | Error e -> failwith (Vmm.error_to_string e)
            | Ok (_resumed, stats) -> stats.Migrate.total)
      in
      Table.add_row table
        [
          image.Image.name;
          Printf.sprintf "%.1f" image.Image.mem_mb;
          Printf.sprintf "%.0f" (ms total);
        ])
    [ Image.daytime; Image.clickos_firewall; Image.minipython ];
  piece ~tables:[ table ] ()

(* ------------------------------------------------------------------ *)
(* Headline numbers *)

let headline_numbers () =
  let table =
    Table.create ~title:"Headline numbers: paper vs this reproduction"
      ~columns:[ "metric"; "paper"; "measured" ]
  in
  (* Boot of the no-device noop unikernel with every optimization. *)
  let noop_boot =
    sim (fun () ->
        let host = Vmm.create ~mode:Mode.lightvm () in
        Vmm.prefill_pool host Image.noop_unikernel ~nics:0 ~disks:0;
        let _vm, t_create, t_boot =
          launch_timed host ~nics:0 Image.noop_unikernel
        in
        t_create +. t_boot)
  in
  let daytime_boot =
    sim (fun () ->
        let host = Vmm.create ~mode:Mode.lightvm () in
        Vmm.prefill_pool host Image.daytime ~nics:1 ~disks:0;
        let _vm, t_create, t_boot =
          launch_timed host ~nics:1 Image.daytime
        in
        t_create +. t_boot)
  in
  let save_t, restore_t =
    sim (fun () ->
        let host = Vmm.create ~mode:Mode.lightvm () in
        let domid = launch host Image.daytime in
        let t0 = Engine.now () in
        let saved =
          match Vmm.vm_snapshot host ~domid with
          | Ok s -> s
          | Error e -> failwith (Vmm.error_to_string e)
        in
        let t_save = Engine.now () -. t0 in
        let t1 = Engine.now () in
        (match Vmm.vm_restore host saved with
        | Ok vi -> ignore (Vmm.vm_boot host ~domid:vi.Vmm.vi_domid)
        | Error e -> failwith (Vmm.error_to_string e));
        (t_save, Engine.now () -. t1))
  in
  let migrate_t =
    sim (fun () ->
        let src = Vmm.create ~host_id:0 ~mode:Mode.lightvm () in
        let dst = Vmm.create ~host_id:1 ~mode:Mode.lightvm () in
        let domid = launch src Image.daytime in
        match Vmm.vm_migrate ~src ~dst ~domid with
        | Error e -> failwith (Vmm.error_to_string e)
        | Ok (_resumed, stats) -> stats.Migrate.total)
  in
  let row metric paper measured =
    Table.add_row table [ metric; paper; measured ]
  in
  row "noop unikernel boot" "2.3 ms" (Printf.sprintf "%.1f ms" (ms noop_boot));
  row "daytime create+boot (all opts)" "4 ms"
    (Printf.sprintf "%.1f ms" (ms daytime_boot));
  row "daytime image on disk" "480 KB"
    (Printf.sprintf "%.0f KB" (Image.daytime.Image.disk_mb *. 1024.));
  row "daytime running memory" "3.6 MB"
    (Printf.sprintf "%.1f MB" Image.daytime.Image.mem_mb);
  row "save (LightVM)" "30 ms" (Printf.sprintf "%.0f ms" (ms save_t));
  row "restore (LightVM)" "20 ms" (Printf.sprintf "%.0f ms" (ms restore_t));
  row "migrate (LightVM)" "60 ms" (Printf.sprintf "%.0f ms" (ms migrate_t));
  piece ~tables:[ table ] ()

let tinyx_table () =
  let table =
    Table.create ~title:"Tinyx build system (Section 3.2)"
      ~columns:
        [ "app"; "packages"; "image MB"; "mem MB"; "kernel KB";
          "debian kernel KB" ]
  in
  List.iter
    (fun app ->
      match Lightvm_tinyx.Build.build (Lightvm_tinyx.Build.spec ~app ()) with
      | Error msg -> Table.add_row table [ app; "error: " ^ msg; ""; ""; ""; "" ]
      | Ok r ->
          Table.add_row table
            [
              app;
              string_of_int (List.length r.Lightvm_tinyx.Build.packages);
              Printf.sprintf "%.1f"
                r.Lightvm_tinyx.Build.image.Image.disk_mb;
              Printf.sprintf "%.1f" r.Lightvm_tinyx.Build.image.Image.mem_mb;
              string_of_int r.Lightvm_tinyx.Build.kernel_kb;
              string_of_int r.Lightvm_tinyx.Build.debian_kernel_kb;
            ])
    [ "nginx"; "micropython"; "redis-server"; "haproxy" ];
  piece ~tables:[ table ] ()

(* ------------------------------------------------------------------ *)
(* Cluster control plane.

   One simulation per scheduling policy: a multi-host cluster places
   guests through the control plane ([Cluster.launch] + [Vmm.vm_boot]
   on the chosen host), recording the create+boot latency the control
   plane observes and the final placement distribution. A fourth job
   drains host 0 under injected migration faults and then rebalances,
   asserting the cluster's loss-aware resource accounting stays exact
   ([Cluster.check_leak]). Everything is seeded, so each job's piece is
   identical whatever the [--jobs] count. *)

let cluster_hosts ~guests = max 4 (min 20 (guests / 25))
let cluster_racks = 4
let cluster_fault_spec = "migrate.corrupt:0.6"

let cluster_boot c (p : Cluster.placement) =
  match
    Vmm.vm_boot (Cluster.host c p.Cluster.pl_host)
      ~domid:p.Cluster.pl_vm.Vmm.vi_domid
  with
  | Ok () -> ()
  | Error e -> failwith ("cluster boot: " ^ Vmm.error_to_string e)

(* One policy's bring-up, partition-parallel: placements are planned up
   front in partition 0 against bookkept scheduler views (the planner
   sees the exact view sequence it would see if placements applied one
   at a time, so the distribution is the policy's), each placement is
   announced on the switch from the control plane, and then every host
   creates its assigned guests concurrently — one creation stream per
   host, in the host's own partition when [`Host]. Latencies land in a
   preallocated per-guest slot, so the merge is by global index and the
   series is identical whatever the partitioning or [sim_jobs]. *)
let cluster_policy_job ?hosts ?(summarize = false) a policy () =
  let guests = n_of a in
  let hosts =
    match hosts with Some h -> h | None -> cluster_hosts ~guests
  in
  let layout = hosts_layout a hosts in
  let pname = Scheduler.policy_name policy in
  let latency = mk (Printf.sprintf "cluster boot latency %s" pname) "ms" in
  let sample = max 1 (guests / 50) in
  let final_views = ref [||] in
  let lat = Array.make guests nan in
  let body () =
    (* Pool-everywhere only makes sense on a pool-capable toolstack;
       the other policies run the paper's default split toolstack. *)
    let mode, pool_target =
      match policy with
      | Scheduler.Pool_everywhere ->
          (Mode.lightvm, Some (max 1 (min 8 (guests / hosts))))
      | Scheduler.Binpack | Scheduler.Spread -> (Mode.chaos_xs, None)
    in
    let c =
      Cluster.create ~hosts ~racks:cluster_racks ~mode ?pool_target ~policy
        ()
    in
    (match policy with
    | Scheduler.Pool_everywhere ->
        Cluster.prefill_pools c Image.daytime ~nics:1 ~disks:0
    | Scheduler.Binpack | Scheduler.Spread -> ());
    let views = Cluster.views c in
    let planner = Scheduler.make policy in
    let mem_kb =
      int_of_float (ceil (Image.daytime.Image.mem_mb *. 1024.))
    in
    let per_host = Array.make hosts [] in
    for gi = 0 to guests - 1 do
      match
        Scheduler.place planner ~hosts:views ~mem_kb
      with
      | Error msg -> failwith ("cluster plan: no capacity: " ^ msg)
      | Ok id ->
          views.(id) <-
            {
              views.(id) with
              Scheduler.hv_vms = views.(id).Scheduler.hv_vms + 1;
              Scheduler.hv_free_kb = views.(id).Scheduler.hv_free_kb - mem_kb;
            };
          Cluster.announce c ~src:id ~dst:id "vm.create";
          per_host.(id) <- gi :: per_host.(id)
    done;
    fan_out_hosts hosts (fun h ->
        let host = Cluster.host c h in
        List.iter
          (fun gi ->
            let t0 = Engine.now () in
            (match
               Vmm.vm_create host (Vmm.vm_request ~nics:1 Image.daytime)
             with
            | Error e -> failwith ("cluster create: " ^ Vmm.error_to_string e)
            | Ok vi -> (
                match Vmm.vm_boot host ~domid:vi.Vmm.vi_domid with
                | Ok () -> ()
                | Error e ->
                    failwith ("cluster boot: " ^ Vmm.error_to_string e)));
            lat.(gi) <- Engine.now () -. t0)
          (List.rev per_host.(h)));
    final_views := Cluster.views c
  in
  sim ~layout body;
  for i = 1 to guests do
    if i mod sample = 0 || i = 1 then
      Series.add latency ~x:(float_of_int i) ~y:(ms lat.(i - 1))
  done;
  let counts =
    Array.to_list
      (Array.map (fun (v : Scheduler.host_view) -> v.Scheduler.hv_vms)
         !final_views)
  in
  let note =
    (* A 100-host placement list is noise; the scale row reports the
       distribution instead. Both forms are pure functions of the
       placements, so either digests deterministically. *)
    if summarize then begin
      let mn = List.fold_left min max_int counts
      and mx = List.fold_left max 0 counts
      and total = List.fold_left ( + ) 0 counts in
      Printf.sprintf
        "cluster %s: %d guests on %d hosts, per-host min %d / mean %.1f / \
         max %d"
        pname guests hosts mn
        (float_of_int total /. float_of_int (max 1 hosts))
        mx
    end
    else
      Printf.sprintf "cluster %s: %d guests on %d hosts, placement [%s]"
        pname guests hosts
        (String.concat "; " (List.map string_of_int counts))
  in
  piece
    ~series:[ { label = "cluster " ^ pname; series = latency } ]
    ~notes:[ note ] ()

let cluster_spec = parse_default "cluster_fault_spec" cluster_fault_spec

(* The drain prefix: the whole cluster of [hosts] hosts up with
   [guests] spread-placed guests running — everything before the first
   injected fault. *)
let drain_boot ~hosts ~guests () =
  let c =
    Cluster.create ~hosts ~racks:cluster_racks ~mode:Mode.chaos_xs
      ~policy:Scheduler.Spread ()
  in
  for _ = 1 to guests do
    match Cluster.launch c (Vmm.vm_request ~nics:1 Image.daytime) with
    | Error e -> failwith (Cluster.error_to_string e)
    | Ok p -> cluster_boot c p
  done;
  c

(* [name] is "cluster" or "cluster-scale": the two families share the
   drain body and list their images under their own keys. (The policy
   bring-up jobs have no image: pool-everywhere runs split toolstacks
   whose warm-pool refill daemons park effect continuations, which is
   exactly what a checkpoint cannot hold.) *)
let drain_image ~name ~hosts ~guests =
  {
    img_key = Printf.sprintf "%s:drain@%d" name guests;
    img_describe =
      Printf.sprintf
        "spread cluster of %d hosts with %d guests running (%s drain prefix)"
        hosts guests name;
    img_layout = single_heap;
    img_prefix = drain_boot ~hosts ~guests;
  }

(* The drain suffix: snapshot accounting, drain host 0 under the
   injector (default spec [cluster_spec]), rebalance, leak check. *)
let cluster_drain_suffix (a : args) c =
  let spec = Option.value a.spec ~default:cluster_spec in
  let injector = Fault.create ~seed:a.fault_seed spec in
  let before = Cluster.resources c in
  let drain =
    Fault.with_injector injector (fun () -> Cluster.drain c ~host:0)
  in
  let reb = Cluster.rebalance c () in
  let leak =
    match Cluster.check_leak c ~before with
    | Ok () -> "accounting exact (leak-free)"
    | Error s -> "LEAK: " ^ s
  in
  let report tag (r : Cluster.move_report) =
    Printf.sprintf
      "cluster %s: %d attempted, %d moved, %d lost, %d stranded in %.1f ms"
      tag r.Cluster.mv_attempted r.Cluster.mv_moved r.Cluster.mv_lost
      r.Cluster.mv_stranded (ms r.Cluster.mv_seconds)
  in
  piece
    ~notes:
      [
        report "drain host 0 under migrate.corrupt" drain;
        report "rebalance" reb;
        "cluster drain/rebalance: " ^ leak;
      ]
    ()

(* The drain family [name], sized by -n guests on [hosts_for] hosts. The
   drain migrates guests between hosts — inherently cross-partition
   state motion — so its image is single-heap. *)
let drain_family name hosts_for =
  Family
    {
      name;
      images =
        (fun a ->
          let guests = n_of a in
          [ drain_image ~name ~hosts:(hosts_for ~guests) ~guests ]);
      suffix = cluster_drain_suffix;
    }

let cluster_drain = drain_family "cluster" cluster_hosts

let cluster_jobs a : job list =
  List.map
    (fun policy ->
      ( "cluster/" ^ Scheduler.policy_name policy,
        cluster_policy_job a policy ))
    Scheduler.policies
  @ [ image_job "cluster/drain" cluster_drain a ]

(* ------------------------------------------------------------------ *)
(* cluster-scale: ROADMAP item 1's end state — 100 hosts x 10k guests
   scheduled, migrated and rebalanced. Same machinery as the [cluster]
   family, but hosts are sized for cloud scale (one host per ~100
   guests, capped at 100) rather than per ~25 capped at 20, the
   placement note is summarized (a 100-element list is noise), and the
   family runs one policy bring-up instead of three — at this scale the
   row exists to exercise the control plane and the event core, not to
   compare policies again. Its drain image (the full fleet booted) is
   keyed separately from [cluster]'s. *)

let cluster_scale_hosts ~guests = max 4 (min 100 (guests / 100))

let cluster_scale_drain = drain_family "cluster-scale" cluster_scale_hosts

let cluster_scale_jobs a : job list =
  [
    ( "cluster-scale/spread",
      cluster_policy_job
        ~hosts:(cluster_scale_hosts ~guests:(n_of a))
        ~summarize:true a Scheduler.Spread );
    image_job "cluster-scale/drain" cluster_scale_drain a;
  ]

(* ------------------------------------------------------------------ *)
(* Serverless (open-loop; DESIGN.md section 12).

   The paper's Lambda rows (Figs 17/18) are closed-loop. This family is
   the open-loop production regime: Lightvm_serverless drives an
   arrival process against one instance-acquisition policy per cell and
   reports the latency percentiles, queue-depth trace and pool hit
   rate. The calibration below keeps the Poisson cells inside the dom0
   creation capacity of the VM policies (~190 req/s for these modes on
   the paper's Xeon, measured in simulation), so their tails reflect
   queueing, not unbounded overload; the container cell at the same
   rate is far beyond `docker run` capacity and drains its backlog
   after arrivals stop — the Fig 10 contrast restated as sojourn
   times. The mmpp cell's bursts (4x base) do exceed capacity, which is
   what exercises the autoscaler's scale-up path.

   Every warm-pool cell starts from a LightVM host with the
   function-instance pool target set and synchronously prefilled, which
   is also the family's snapshot image ("serverless:warm@<target>").
   Prefilling parks no continuation, so the image quiesces — unlike a
   host that has already served a take (whose background refill daemon
   may be mid-build). *)

let serverless_rate = 80.
let serverless_pool_target = 4
let serverless_cold_mode = Mode.chaos_xs

(* A LightVM host with its function-instance pool prefilled. *)
let serverless_warm_host ?host_id () =
  let host = Vmm.create ?host_id () in
  Serverless.warm_pool host ~target:serverless_pool_target;
  host

let serverless_image =
  {
    img_key = Printf.sprintf "serverless:warm@%d" serverless_pool_target;
    img_describe =
      Printf.sprintf
        "one LightVM host, function-instance pool prefilled to %d \
         (serverless warm prefix)"
        serverless_pool_target;
    img_layout = single_heap;
    img_prefix = (fun () -> serverless_warm_host ());
  }

(* Distinct per-cell seed so cells stay independent whatever the job
   order: a pure function of the base seed and the cell's position in
   the family. *)
let serverless_cell_seed ~seed i = Int64.add seed (Int64.of_int (i * 7919))

let serverless_config ~arrival ~requests ~policy ~seed =
  let duration = float_of_int requests /. Arrival.mean_rate arrival in
  {
    (Serverless.default_config ~arrival ~duration policy) with
    Serverless.seed;
    autoscaler =
      {
        Serverless.default_autoscaler with
        min_target = serverless_pool_target;
      };
  }

(* One cell's piece: the latency CDF (x in us, y the percentile), the
   queue-depth trace and the percentile note. Everything rendered is
   simulated data, so the piece digests identically however the cell
   was scheduled. *)
let serverless_render ~label (s : Serverless.stats) =
  let cdf = mk ("serverless cdf " ^ label) "us" in
  let n = Quantiles.count s.Serverless.latency in
  if n > 0 then
    List.iter
      (fun (v, frac) -> Series.add cdf ~x:(1e6 *. v) ~y:(100. *. frac))
      (Quantiles.sorted_points s.Serverless.latency ~every:(max 1 (n / 200)));
  piece
    ~series:
      [
        { label = "cdf " ^ label; series = cdf };
        { label = "queue " ^ label; series = s.Serverless.queue_depth };
      ]
    ~notes:[ Serverless.percentile_note ~label s ]
    ()

(* A cell's suffix: the open-loop run on [host], optionally under a
   fault injector (injected creation failures count as failed requests;
   the arrival stream never blocks on them). *)
let serverless_suffix ~requests ~policy ~arrival ?spec ~seed host =
  let cfg = serverless_config ~arrival ~requests ~policy ~seed in
  match spec with
  | None -> Serverless.run_node cfg host
  | Some spec ->
      Fault.with_injector (Fault.create ~seed spec) (fun () ->
          Serverless.run_node cfg host)

(* One cell's stats: warm-pool cells on the prefilled LightVM host, the
   others on a fresh chaos [XS] host. *)
let serverless_cell_stats ~requests ~policy ~arrival ?spec ~seed () =
  sim (fun () ->
      let host =
        match policy with
        | Serverless.Warm_pool -> serverless_warm_host ()
        | Serverless.Cold_boot | Serverless.Container ->
            Vmm.create ~mode:serverless_cold_mode ()
      in
      serverless_suffix ~requests ~policy ~arrival ?spec ~seed host)

let serverless_label ~policy ~arrival ~spec =
  Printf.sprintf "%s/%s"
    (Serverless.policy_name policy)
    (Arrival.name arrival)
  ^ match spec with Some _ -> "/faults" | None -> ""

let serverless_cell ~requests ~policy ~arrival ?spec ~seed () =
  serverless_render
    ~label:(serverless_label ~policy ~arrival ~spec)
    (serverless_cell_stats ~requests ~policy ~arrival ?spec ~seed ())

(* The fleet cell: [serverless_fleet_hosts] LightVM hosts each running
   an independent warm-pool node in its own partition, per-host streams
   split from the cell seed by host index. Hosts only write their own
   slot of the results array (the disjoint-slot cross-domain pattern),
   and the merge walks hosts in index order, so the render is identical
   across the jobs x partition matrix. *)
let serverless_fleet_hosts = 4

(* The per-host fan-out shared by the fleet cell and the day row:
   [node h] supplies host [h]'s (already warm, or freshly warmed) VMM,
   each host runs its own Poisson stream split from the cell seed by
   host index, and results land in disjoint slots. *)
let serverless_fleet_cells ~hosts ~requests ~seed ~node =
  let per = max 1 (requests / hosts) in
  let slots = Array.make hosts None in
  fan_out_hosts hosts (fun h ->
      let host = node h in
      let cfg =
        serverless_config
          ~arrival:(Arrival.Poisson { rate = serverless_rate })
          ~requests:per ~policy:Serverless.Warm_pool
          ~seed:(Int64.add seed (Int64.of_int ((h + 1) * 104729)))
      in
      slots.(h) <- Some (Serverless.run_node cfg host));
  slots

(* Merge the per-host results in host index order (latency quantiles
   merged into one accumulator, counters summed) and render: identical
   whatever the partitioning or worker count. *)
let serverless_fleet_finish ~label slots =
  let per_host = Array.to_list (Array.map Option.get slots) in
  let merged = Quantiles.create () in
  List.iter
    (fun (s : Serverless.stats) ->
      Quantiles.merge_into merged ~src:s.Serverless.latency)
    per_host;
  let total f = List.fold_left (fun a s -> a + f s) 0 per_host in
  let agg =
    {
      Serverless.requests = total (fun s -> s.Serverless.requests);
      completed = total (fun s -> s.Serverless.completed);
      failures = total (fun s -> s.Serverless.failures);
      latency = merged;
      queue_depth = (List.hd per_host).Serverless.queue_depth;
      pool_hits = total (fun s -> s.Serverless.pool_hits);
      pool_takes = total (fun s -> s.Serverless.pool_takes);
      peak_target =
        List.fold_left
          (fun a (s : Serverless.stats) -> max a s.Serverless.peak_target)
          0 per_host;
      makespan =
        List.fold_left
          (fun a (s : Serverless.stats) -> Float.max a s.Serverless.makespan)
          0. per_host;
    }
  in
  let p = serverless_render ~label agg in
  let host_notes =
    List.mapi
      (fun h s ->
        Serverless.percentile_note ~label:(Printf.sprintf "fleet host %d" h) s)
      per_host
  in
  { p with p_notes = p.p_notes @ host_notes }

let serverless_fleet a () =
  let hosts = serverless_fleet_hosts in
  let slots =
    sim ~layout:(hosts_layout a hosts) (fun () ->
        serverless_fleet_cells ~hosts ~requests:(n_of a)
          ~seed:(serverless_cell_seed ~seed:a.fault_seed 6)
          ~node:(fun h -> serverless_warm_host ~host_id:h ()))
  in
  serverless_fleet_finish
    ~label:(Printf.sprintf "fleet x%d warmpool/poisson" hosts)
    slots

let serverless_jobs a : job list =
  let requests = n_of a in
  let rate = serverless_rate in
  let poisson = Arrival.Poisson { rate } in
  let duration = float_of_int requests /. rate in
  let diurnal = Arrival.Diurnal { base = rate; amplitude = 0.6; period = duration } in
  let mmpp =
    Arrival.Mmpp
      {
        calm_rate = rate /. 2.;
        burst_rate = 4. *. rate;
        mean_calm = duration /. 12.;
        mean_burst = duration /. 60.;
      }
  in
  let cell i ?spec ~policy ~arrival () =
    serverless_cell ~requests ~policy ~arrival ?spec
      ~seed:(serverless_cell_seed ~seed:a.fault_seed i) ()
  in
  [
    ( "serverless/coldboot",
      fun () -> cell 0 ~policy:Serverless.Cold_boot ~arrival:poisson () );
    ( "serverless/warmpool",
      fun () -> cell 1 ~policy:Serverless.Warm_pool ~arrival:poisson () );
    ( "serverless/container",
      fun () -> cell 2 ~policy:Serverless.Container ~arrival:poisson () );
    ( "serverless/warmpool-diurnal",
      fun () -> cell 3 ~policy:Serverless.Warm_pool ~arrival:diurnal () );
    ( "serverless/warmpool-mmpp",
      fun () -> cell 4 ~policy:Serverless.Warm_pool ~arrival:mmpp () );
    ( "serverless/coldboot-faults",
      fun () ->
        cell 5
          ~spec:(Option.value a.spec ~default:reliability_spec)
          ~policy:Serverless.Cold_boot ~arrival:poisson () );
    ( Printf.sprintf "serverless/fleet/%d" serverless_fleet_hosts,
      serverless_fleet a );
  ]

(* Resumed, a warm host serves the family's warm-pool Poisson cell,
   under [spec] only when one is given. *)
let serverless_family =
  let policy = Serverless.Warm_pool
  and arrival = Arrival.Poisson { rate = serverless_rate } in
  Family
    {
      name = "serverless";
      images = (fun _ -> [ serverless_image ]);
      suffix =
        (fun a host ->
          serverless_render
            ~label:(serverless_label ~policy ~arrival ~spec:a.spec)
            (serverless_suffix ~requests:(n_of a) ~policy ~arrival ?spec:a.spec
               ~seed:(serverless_cell_seed ~seed:a.fault_seed 1)
               host));
    }

(* Bench hook: [(cold_p99_us, warm_p99_us, warm_hit_rate)] for the
   flagship Poisson pair, same seeds as the family jobs. The bench
   emits these as JSON fields and CI asserts warm < cold. *)
let serverless_bench_summary ~requests =
  let poisson = Arrival.Poisson { rate = serverless_rate } in
  let stats i policy =
    serverless_cell_stats ~requests ~policy ~arrival:poisson
      ~seed:(serverless_cell_seed ~seed:default_args.fault_seed i) ()
  in
  let cold = stats 0 Serverless.Cold_boot in
  let warm = stats 1 Serverless.Warm_pool in
  let p99 (s : Serverless.stats) =
    if Quantiles.count s.Serverless.latency = 0 then 0.
    else 1e6 *. Quantiles.quantile s.Serverless.latency 0.99
  in
  (p99 cold, p99 warm, Serverless.hit_rate warm)

(* ------------------------------------------------------------------ *)
(* serverless-day: ROADMAP item 2's headline row — a full day's worth
   of host-seconds of open-loop traffic (at bench scale, 7M requests at
   the calibrated 80 req/s per host across the 4-host fleet, i.e.
   ~87,500 host-seconds of arrivals) pushed through the fleet cell in
   one simulation. The fleet prefix — the hosts created and their
   instance pools synchronously prefilled — is the family's snapshot
   image, and its one job is the family's image and suffix. Prefilling
   parks no effect continuation, so the image quiesces — the same
   argument as the single-host "serverless:warm@" image. *)

(* The day's prefix: the fleet's hosts created and their instance pools
   prefilled, one per partition when the run has them. *)
let serverless_day_boot ~hosts () =
  let nodes = Array.make hosts None in
  fan_out_hosts hosts (fun h ->
      nodes.(h) <- Some (serverless_warm_host ~host_id:h ()));
  Array.map Option.get nodes

(* The day itself: every host's stream on its prefilled node, merged. *)
let serverless_day_suffix a nodes =
  let hosts = Array.length nodes in
  serverless_fleet_finish
    ~label:(Printf.sprintf "day fleet x%d warmpool/poisson" hosts)
    (serverless_fleet_cells ~hosts ~requests:(n_of a)
       ~seed:(serverless_cell_seed ~seed:a.fault_seed 7)
       ~node:(Array.get nodes))

let serverless_day =
  Family
    {
      name = "serverless-day";
      images =
        (fun a ->
          let layout = hosts_layout a serverless_fleet_hosts in
          let part = partition_name layout.partition in
          [
            {
              img_key = Printf.sprintf "serverless-day:%s@%d" part layout.hosts;
              img_describe =
                Printf.sprintf
                  "%d LightVM hosts, function-instance pools prefilled to %d \
                   each (serverless-day fleet prefix, partition %s)"
                  layout.hosts serverless_pool_target part;
              img_layout = layout;
              img_prefix = serverless_day_boot ~hosts:layout.hosts;
            };
          ]);
      suffix = serverless_day_suffix;
    }

(* ------------------------------------------------------------------ *)
(* The registry: one declaration per experiment. A declaration is the
   experiment's id and figure, the paper's statement (the bench prints
   it), its default -n and the bench's sizes, its jobs and the
   (order-preserving) merge of their pieces, and the snapshot families
   it owns. Plans, names, snapshot keys, resume and the bench all read
   [experiments]. *)

type result = {
  name : string;
  figure : string; (* paper figure or section, e.g. "Fig 5" *)
  series : labelled list;
  tables : Table.t list;
  notes : string list;
}

let result_of_piece ~name ~figure p =
  { name; figure; series = p.p_series; tables = p.p_tables; notes = p.p_notes }

let relabel suffix l = { l with label = l.label ^ " " ^ suffix }

type plan = {
  plan_jobs : job list;
  plan_finish : piece list -> result;
}

type experiment = {
  id : string;
  figure : string;
  paper : string;
  default_n : int option;
  sizes : (int * int * int) option;
  jobs : args -> job list;
  finish : piece list -> piece;
  families : family list;
}

let experiments =
  [
    { id = "fig1"; figure = "Fig 1"; default_n = None; sizes = None;
      paper = "~200 syscalls in 2002 growing to ~400 by 2017";
      jobs = (fun _ -> [ ("fig1", fig1_syscall_growth) ]);
      finish = piece_concat; families = [] };
    { id = "fig2"; figure = "Fig 2"; default_n = None; sizes = None;
      paper = "linear, ~1 ms per MB (ramdisk-backed images)";
      jobs = (fun _ -> [ ("fig2", fig2_boot_vs_image_size) ]);
      finish = piece_concat; families = [] };
    { id = "fig4"; figure = "Fig 4"; default_n = Some 200;
      sizes = Some (60, 400, 1000);
      paper =
        "Debian 500ms create/1.5s boot; Tinyx 360/180ms; unikernel 80/3ms; \
         Docker ~200ms; process 3.5ms";
      jobs = fig4_jobs; finish = piece_concat; families = [] };
    { id = "fig5"; figure = "Fig 5"; default_n = Some 200;
      sizes = Some (60, 400, 1000);
      paper =
        "XenStore and device creation dominate; XenStore grows superlinearly";
      jobs = (fun a -> [ ("fig5", fig5_breakdown a) ]);
      finish = piece_concat; families = [] };
    { id = "fig9"; figure = "Fig 9"; default_n = Some 200;
      sizes = Some (80, 400, 1000);
      paper =
        "xl 100ms->1s; chaos[XS] 15->80ms; +split max ~25ms; noxs 8-15ms; \
         all: 4->4.1ms";
      jobs = fig9_jobs; finish = piece_concat; families = [] };
    (* No single default -n: without one, the default counts. *)
    { id = "scale"; figure = "Fig 9 at 10k"; default_n = None;
      sizes = Some (10_000, 10_000, 10_000);
      paper =
        "beyond the paper: host stays near-linear to 10k guests; xl capped \
         at 2000 (its modeled libxl protocol is Theta(N^2) round trips)";
      jobs = scale_jobs; finish = piece_concat;
      families = [ scale_family; fleet_family ] };
    { id = "reliability"; figure = "Failure model"; default_n = Some 200;
      sizes = Some (20, 100, 200);
      paper =
        "success rates fall as fault rates rise; [NoXS] immune to xs.* \
         points; no resource leaks after failed creations";
      jobs = reliability_jobs; finish = reliability_finish;
      families = [ reliability_family ] };
    { id = "fig10"; figure = "Fig 10"; default_n = Some 4000;
      sizes = Some (300, 3000, 8000);
      paper =
        "LightVM scales to 8000 guests; Docker ~150ms->1s and wedges ~3000";
      jobs = fig10_jobs; finish = piece_concat; families = [] };
    { id = "fig11"; figure = "Fig 11"; default_n = Some 200;
      sizes = Some (60, 400, 1000);
      paper = "unikernel ~4ms; Tinyx close to Docker (~150-250ms)";
      jobs = fig11_jobs; finish = piece_concat; families = [] };
    { id = "fig12"; figure = "Fig 12"; default_n = Some 200;
      sizes = Some (40, 200, 1000);
      paper = "LightVM: save 30ms, restore 20ms, flat; xl: 128ms and 550ms";
      jobs = fig12_jobs;
      (* Sequential rendering lists every mode's save series first, then
         every restore: reassemble that order from the per-mode pieces
         ([save; restore] each). *)
      finish =
        (fun pieces ->
          let nth i = List.map (fun p -> List.nth p.p_series i) pieces in
          piece
            ~series:
              (List.map (relabel "save") (nth 0)
              @ List.map (relabel "restore") (nth 1))
            ());
      families = [] };
    { id = "fig13"; figure = "Fig 13"; default_n = Some 200;
      sizes = Some (40, 200, 1000);
      paper = "LightVM ~60ms regardless of load; xl grows into seconds";
      jobs = fig13_jobs; finish = piece_concat; families = [] };
    { id = "fig14"; figure = "Fig 14"; default_n = Some 400;
      sizes = Some (100, 400, 1000);
      paper =
        "at 1000: Debian ~114GB, Tinyx ~27GB, Docker ~5GB, Minipython a bit \
         above Docker";
      jobs = fig14_jobs; finish = piece_concat; families = [] };
    { id = "fig15"; figure = "Fig 15"; default_n = Some 200;
      sizes = Some (60, 200, 1000);
      paper = "at 1000: Debian ~25%, Tinyx ~1%, unikernel/Docker near zero";
      jobs = fig15_jobs; finish = piece_concat; families = [] };
    { id = "fig16a"; figure = "Fig 16a"; default_n = None; sizes = None;
      paper = "linear to 2.5Gbps @250 users; 4Gbps/4Mbps each @1000; RTT ~60ms";
      jobs = (fun _ -> [ ("fig16a", fig16a_firewall) ]);
      finish = piece_concat; families = [] };
    { id = "fig16b"; figure = "Fig 16b"; default_n = Some 250;
      sizes = Some (60, 250, 1000);
      paper =
        "median 13ms / p90 20ms at 25ms arrivals; long timeout tail at 10ms";
      jobs = fig16b_jobs; finish = piece_concat; families = [] };
    { id = "fig16c"; figure = "Fig 16c"; default_n = None; sizes = None;
      paper =
        "bare metal and Tinyx saturate ~1.4 Kreq/s; unikernel ~1/5 (lwip)";
      jobs = (fun _ -> fig16c_jobs); finish = piece_concat; families = [] };
    { id = "fig17"; figure = "Fig 17"; default_n = Some 400;
      sizes = Some (100, 400, 1000);
      paper = "overloaded host: XenStore path backs up more than noxs";
      jobs = fig17_jobs; finish = piece_concat; families = [] };
    { id = "fig18"; figure = "Fig 18"; default_n = Some 400;
      sizes = Some (100, 400, 1000);
      paper = "concurrent VMs over time on the overloaded host";
      jobs = fig18_jobs; finish = piece_concat; families = [] };
    { id = "ablation"; figure = "Sec 4.2 ablation"; default_n = Some 300;
      sizes = Some (60, 300, 1000);
      paper =
        "cxenstored much slower than oxenstored; disabling logging removes \
         the spikes but not the growth";
      jobs = ablation_jobs; finish = piece_concat; families = [] };
    { id = "pause"; figure = "Sec 2"; default_n = None; sizes = None;
      paper = "must match container freeze/thaw";
      jobs = (fun _ -> [ ("pause", pause_unpause) ]);
      finish = piece_concat; families = [] };
    { id = "wan-migration"; figure = "Sec 7.1"; default_n = None; sizes = None;
      paper = "ClickOS guest in ~150 ms";
      jobs = (fun _ -> [ ("wan-migration", wan_migration) ]);
      finish = piece_concat; families = [] };
    { id = "headline"; figure = "Abstract"; default_n = None; sizes = None;
      paper = ""; jobs = (fun _ -> [ ("headline", headline_numbers) ]);
      finish = piece_concat; families = [] };
    { id = "tinyx"; figure = "Sec 3.2"; default_n = None; sizes = None;
      paper = ""; jobs = (fun _ -> [ ("tinyx", tinyx_table) ]);
      finish = piece_concat; families = [] };
    { id = "cluster"; figure = "Cluster"; default_n = Some 500;
      sizes = Some (60, 300, 500);
      paper =
        "beyond the paper: 3 placement policies on a multi-host cluster, \
         plus drain/rebalance under injected migration corruption \
         (leak-free accounting)";
      jobs = cluster_jobs; finish = piece_concat;
      families = [ cluster_drain ] };
    { id = "cluster-scale"; figure = "Cluster at scale"; default_n = Some 2000;
      sizes = Some (1000, 10_000, 10_000);
      paper =
        "beyond the paper: the event-core headline — 100 hosts x 10k guests \
         scheduled, then drained and rebalanced, leak-free";
      jobs = cluster_scale_jobs; finish = piece_concat;
      families = [ cluster_scale_drain ] };
    { id = "serverless"; figure = "Open-loop serverless"; default_n = Some 2000;
      sizes = Some (600, 2000, 4000);
      paper =
        "beyond the paper: open-loop invocations on one dom0-bottlenecked \
         host; the split-toolstack warm pool moves create work off the \
         request path, winning at the tail (p99/p999) while background \
         refill cedes a little median";
      jobs = serverless_jobs; finish = piece_concat;
      families = [ serverless_family ] };
    { id = "serverless-day"; figure = "Serverless day"; default_n = Some 8000;
      sizes = Some (40_000, 7_000_000, 7_000_000);
      paper =
        "beyond the paper: a full simulated day of open-loop traffic (~7M \
         requests at the calibrated 80 req/s per host) through the warm \
         fleet";
      jobs = (fun a -> [ image_job "serverless-day/fleet" serverless_day a ]);
      finish = piece_concat; families = [ serverless_day ] };
  ]

let names = List.map (fun d -> d.id) experiments

let find name = List.find_opt (fun d -> String.equal d.id name) experiments

(* An experiment's args: its own default -n unless one was given. *)
let resolve d (a : args) =
  if Option.is_some a.n then a else { a with n = d.default_n }

let plan_of d a =
  let a = resolve d a in
  {
    plan_jobs = d.jobs a;
    plan_finish =
      (fun pieces ->
        result_of_piece ~name:d.id ~figure:d.figure (d.finish pieces));
  }

let plans a = List.map (fun d -> (d.id, plan_of d a)) experiments

(* The one check of a user-supplied scale, shared by [plan] and the
   resume and serverless entry points. *)
let check_n = function
  | Some v when v < 1 -> Error (Printf.sprintf "-n must be >= 1 (got %d)" v)
  | _ -> Ok ()

let plan a name =
  match find name with
  | None ->
      Error
        (Printf.sprintf "unknown experiment %S; try: %s" name
           (String.concat " " names))
  | Some d -> Result.map (fun () -> plan_of d a) (check_n a.n)

let run_plan ?(jobs = 1) p =
  let thunks = List.map snd p.plan_jobs in
  p.plan_finish
    (if jobs <= 1 then List.map (fun f -> f ()) thunks
     else Pool.run ~jobs thunks)

(* ------------------------------------------------------------------ *)
(* Snapshot/resume.

   Every family image is addressable by its key, so the CLI can build
   one, write it to disk ([snapshot]) and later run the family's suffix
   from the file ([resume]) — across process invocations, as long as it
   is the same binary ({!Lightvm_sim.Checkpoint} refuses anything
   else). The key doubles as the snapshot's stored config string. A
   suffix reads the mode, the guest and host counts and the host
   partitions off the image's root and engine; the caller's args give
   only -n, the spec and the fault seed, with the owning experiment's
   defaults, as they do for its plan. *)

(* Every family, with the experiment that owns it, in registry order. *)
let owned =
  List.concat_map (fun d -> List.map (fun f -> (d, f)) d.families) experiments

(* Frozen image bytes, or the reason the prefix cannot be frozen (a bug
   in the image's choice of quiesce point, not a user error). *)
let freeze img =
  let saved, root = capture img.img_layout img.img_prefix in
  match Snap.freeze (saved, root) with
  | Ok bytes -> bytes
  | Error e -> failwith (img.img_key ^ ": " ^ Snap.error_to_string e)

(* Thaw [bytes] and run [suffix] in the resumed simulation, on the
   image's own partitioning with one worker. *)
let resume suffix bytes =
  match Snap.thaw bytes with
  | Error e -> Error (Snap.error_to_string e)
  | Ok ((saved : Engine.saved), root) ->
      Ok (sim ~from:saved (fun () -> suffix root))

let resumed = Result.map (result_of_piece ~name:"resume" ~figure:"snapshot")

type prefix = {
  prefix_key : string;
  prefix_describe : string;
  prefix_build : unit -> string;
  prefix_run :
    args -> [ `Unbroken | `Image of string ] -> (result, string) Stdlib.result;
}

let listed d suffix img =
  {
    prefix_key = img.img_key;
    prefix_describe = img.img_describe;
    prefix_build = (fun () -> freeze img);
    prefix_run =
      (fun a origin ->
        let a = resolve d a in
        resumed
          (Result.bind (check_n a.n) (fun () ->
               match origin with
               | `Unbroken -> Ok (unbroken img (suffix a))
               | `Image bytes -> resume (suffix a) bytes)));
  }

let prefixes a =
  List.concat_map
    (fun (d, Family f) -> List.map (listed d f.suffix) (f.images (resolve d a)))
    owned

let snapshot_to_file a ~key ~path =
  let avail = prefixes a in
  match List.find_opt (fun p -> String.equal p.prefix_key key) avail with
  | None ->
      Error
        (Printf.sprintf "unknown prefix %S; available:\n  %s" key
           (String.concat "\n  " (List.map (fun p -> p.prefix_key) avail)))
  | Some p -> (
      match p.prefix_build () with
      | exception Failure msg -> Error msg
      | bytes -> (
          match Snap.save_bytes ~path ~config:key bytes with
          | Ok () -> Ok p.prefix_describe
          | Error e -> Error (Snap.error_to_string e)))

let resume_from_file a ~path =
  match (check_n a.n, Snap.load_bytes ~path ()) with
  | Error m, _ -> Error m
  | _, Error e -> Error (Snap.error_to_string e)
  | Ok (), Ok (key, bytes) -> (
      let name =
        match String.index_opt key ':' with
        | Some i -> String.sub key 0 i
        | None -> key
      in
      match
        List.find_opt (fun (_, Family f) -> String.equal f.name name) owned
      with
      | None -> Error (Printf.sprintf "unrecognised snapshot key %S" key)
      | Some (d, Family f) -> resumed (resume (f.suffix (resolve d a)) bytes))

(* ------------------------------------------------------------------ *)
(* The CLI's `serverless` subcommand: one configurable cell from flag
   values. [duration] wins over -n when both are given (requests
   follow from rate * duration); otherwise -n, by default the serverless
   family's, is the request budget and the duration follows from the
   mean rate. *)

let serverless_run ?duration ~arrival ~rate ~policy (a : args) =
  let d = Option.get (find "serverless") in
  let requests, period =
    match duration with
    | Some t -> (max 1 (int_of_float (rate *. t)), t)
    | None ->
        let v = n_of (resolve d a) in
        (v, float_of_int v /. rate)
  in
  match
    ( check_n a.n,
      Arrival.of_flag ~rate ~period arrival,
      Serverless.policy_of_string policy )
  with
  | Error m, _, _ | _, Error m, _ | _, _, Error m -> Error m
  | Ok (), Ok arrival, Ok policy ->
      Ok
        (result_of_piece ~name:d.id ~figure:d.figure
           (serverless_cell ~requests ~policy ~arrival ?spec:a.spec
              ~seed:a.fault_seed ()))

(* ------------------------------------------------------------------ *)
(* XenStore dump *)

let xenstore_dump ~count =
  let buf = Buffer.create 8192 in
  ignore
    (Engine.run (fun () ->
         let host = Vmm.create ~mode:Mode.chaos_xs () in
         for _ = 1 to count do
           match Vmm.vm_create host (Vmm.vm_request Image.daytime) with
           | Ok vi -> ignore (Vmm.vm_boot host ~domid:vi.Vmm.vi_domid)
           | Error e -> failwith (Vmm.error_to_string e)
         done;
         let module Xs_server = Lightvm_xenstore.Xs_server in
         let module Xs_store = Lightvm_xenstore.Xs_store in
         let server = Toolstack.xs_server (Vmm.toolstack host) in
         let store = Xs_server.store server in
         Printf.bprintf buf
           "XenStore after creating %d guest(s) (%d nodes, generation \
            %d):\n"
           count (Xs_store.node_count store) (Xs_store.generation store);
         Xs_store.iter store (fun ~path ~value ~perms ->
             Printf.bprintf buf "%-52s = %-14S  (%s)\n"
               (Lightvm_xenstore.Xs_path.to_string path)
               value
               (Lightvm_xenstore.Xs_perms.to_string perms));
         let c = Xs_server.counters server in
         Printf.bprintf buf
           "\ndaemon: %d ops, %d watch events, %d commits, %d conflicts, \
            %.2f ms busy\n"
           c.Xs_server.ops c.Xs_server.watch_events c.Xs_server.tx_commits
           c.Xs_server.tx_conflicts
           (c.Xs_server.busy_time *. 1e3);
         Engine.stop ()));
  Buffer.contents buf
