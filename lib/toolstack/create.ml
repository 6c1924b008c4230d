module Engine = Lightvm_sim.Engine
module Fault = Lightvm_sim.Fault
module Xen = Lightvm_hv.Xen
module Domain = Lightvm_hv.Domain
module Devpage = Lightvm_hv.Devpage
module Params = Lightvm_hv.Params
module Xs_server = Lightvm_xenstore.Xs_server
module Xs_client = Lightvm_xenstore.Xs_client
module Xs_path = Lightvm_xenstore.Xs_path
module Xs_error = Lightvm_xenstore.Xs_error
module Device = Lightvm_guest.Device
module Guest = Lightvm_guest.Guest
module Image = Lightvm_guest.Image
module Ctrl = Lightvm_guest.Ctrl
module Xenbus_front = Lightvm_guest.Xenbus_front
module Trace = Lightvm_trace.Trace

type category =
  | Cat_parse
  | Cat_hypervisor
  | Cat_xenstore
  | Cat_devices
  | Cat_load
  | Cat_toolstack

let categories =
  [ Cat_parse; Cat_hypervisor; Cat_xenstore; Cat_devices; Cat_load;
    Cat_toolstack ]

let category_name = function
  | Cat_parse -> "config"
  | Cat_hypervisor -> "hypervisor"
  | Cat_xenstore -> "xenstore"
  | Cat_devices -> "devices"
  | Cat_load -> "load"
  | Cat_toolstack -> "toolstack"

let category_index = function
  | Cat_parse -> 0
  | Cat_hypervisor -> 1
  | Cat_xenstore -> 2
  | Cat_devices -> 3
  | Cat_load -> 4
  | Cat_toolstack -> 5

type breakdown = float array

let breakdown_create () = Array.make 6 0.

let breakdown_get b cat = b.(category_index cat)

let breakdown_total b = Array.fold_left ( +. ) 0. b

(* Attribute the wall-clock (simulated) duration of [f] to [cat]. When
   tracing is on the slice also lands in the span ring under the
   category's name; the span opens and closes at the two clock reads
   taken here, so its duration is exactly what the breakdown adds. *)
let timed (b : breakdown option) cat f =
  match b with
  | None -> f ()
  | Some b ->
      let i = category_index cat in
      let t0 = Engine.now () in
      let r =
        Trace.Span.with_ ~category:(category_name cat) (category_name cat) f
      in
      b.(i) <- b.(i) +. (Engine.now () -. t0);
      r

(* One span per pipeline phase (category "create"); with tracing off
   [f] runs bare and [attrs] is never called. *)
let phase attrs name f =
  if Trace.enabled () then
    Trace.Span.with_ ~attrs:(attrs ()) ~category:"create" name f
  else f ()

type env = {
  xen : Xen.t;
  xs_server : Xs_server.t;
  xs : Xs_client.t;
  ctrl : Ctrl.t;
  backend : Backend.t;
  mode : Mode.t;
  costs : Costs.t;
  shells : int ref;
}

(* The attributes of every phase span of [domid]'s creation. *)
let phase_attrs env domid () =
  [ ("domid", string_of_int domid); ("mode", Mode.name env.mode) ]

type shell = {
  s_domid : int;
  s_mem_mb : float;
  s_vcpus : int;
  s_nics : int;
  s_disks : int;
  s_devices : (Device.config * (int * int) option) list;
      (* (device, (ctrl grant, evtchn port)) — the pair is present in
         noxs mode *)
}

type created = {
  domid : int;
  vm_name : string;
  config : Vmconfig.t;
  guest : Guest.t;
  devices : Device.config list;
  noxs_grants : (Device.config * int) list;
  create_time : float;
  breakdown : breakdown;
}

exception Create_failed of string

(* Injected phase failure (fault point "create.phaseN"): the phase's
   dominant operation reports an error after the toolstack has already
   committed to the phase, so the caller must roll back. *)
let phase_points =
  Array.init 9 (fun i -> Fault.point (Printf.sprintf "create.phase%d" (i + 1)))

let inject_phase n =
  if Fault.fire phase_points.(n - 1) then
    raise (Create_failed (Printf.sprintf "injected fault: phase %d failed" n))

(* Lower layers report their own failures; the pipeline presents every
   abort to callers as [Create_failed] so the retry/cleanup contract has
   a single exception to document. *)
let as_create_failed = function
  | Backend.Alloc_failed msg | Hotplug.Timeout msg -> Create_failed msg
  | e -> e

let effective_mem_mb env (cfg : Vmconfig.t) =
  if env.mode.Mode.min_mem_patch then cfg.Vmconfig.memory_mb
  else Float.max cfg.Vmconfig.memory_mb env.costs.Costs.min_mem_mb

let is_xl env = env.mode.Mode.impl = Mode.Xl

let uses_xenstore env = env.mode.Mode.registry = Mode.Xenstore

(* Scan all running guests for a name (libxl_name_to_domid): a
   directory listing plus one read per guest, each a full round-trip to
   the daemon. This is one of the scalability killers of the standard
   toolstack — [Xs_client.scan_names] models exactly that request
   sequence (same charges and counters) while the host serves it from
   the daemon's name index, so a 10k-guest boot storm doesn't also take
   Θ(N²) host time. *)
let scan_domain_names env = Xs_client.scan_names env.xs

(* ------------------------------------------------------------------ *)
(* XenStore paths *)

let shutdown_path domid =
  Xs_path.(domain_path domid / "control" / "shutdown")

let vm_path domid = Xs_path.(root / "vm" / string_of_int domid)

let shutdown_watch_token domid = Printf.sprintf "xl-shutdown-%d" domid

(* ------------------------------------------------------------------ *)
(* Rollback *)

(* Drop the backend's per-device watch ([Backend.watch_device]), if it
   was ever registered. *)
let unwatch_device env ~domid (dev : Device.config) =
  try
    Xs_client.unwatch env.xs
      ~path:(Xs_path.concat (Device.frontend_dir ~domid dev) "state")
      ~token:(Backend.watch_token ~domid dev)
  with Xs_error.Error _ -> ()

(* Remove a domain's XenStore state, as far as it was built — the one
   teardown both [rollback] and [destroy] run, so a deleted guest
   releases exactly what a failed creation at the same point would:

   - [devices]: devices whose phase-5 pre-creation started (backend
     directory + watch). May include a half-built last device — every
     step tolerates "was never created".
   - [xl_watch]/[xl_nodes]: xl's shutdown watch and its name
     registration and /vm/<domid> subtree exist (phase 7, xl only).
   - [skeleton]: the /local/domain/<domid> subtree exists (phase 4).

   Frontend entries (phase 7) live under the domain subtree and are
   removed with it. *)
let xs_teardown env ~domid ~devices ~xl_watch ~xl_nodes ~skeleton =
  List.iter
    (fun dev ->
      unwatch_device env ~domid dev;
      (* Remove the per-guest level, not just the device node: the first
         backend write implicitly created .../backend/<kind>/<domid>,
         which would otherwise leak one empty directory per guest. *)
      try Xs_client.rm env.xs (Device.backend_domain_dir ~domid dev)
      with Xs_error.Error _ -> ())
    devices;
  (if xl_watch then
     try
       Xs_client.unwatch env.xs ~path:(shutdown_path domid)
         ~token:(shutdown_watch_token domid)
     with Xs_error.Error _ -> ());
  (if xl_nodes then
     try Xs_client.rm env.xs (vm_path domid) with Xs_error.Error _ -> ());
  if skeleton then begin
    (try Xs_client.rm env.xs (Xs_path.domain_path domid)
     with Xs_error.Error _ -> ());
    Xs_client.release env.xs domid
  end

(* Undo a partially-built domain. Arguments say exactly how far the
   pipeline got (see [xs_teardown]) — the rollback must release
   precisely what was acquired, nothing more, so that a failure early in
   the pipeline (e.g. the pre-existing out-of-memory abort in phase 4)
   performs the same operations it always did. Under noxs, [devices]
   carries each pre-created device's grant, ctrl page and event channel.

   Guest-owned frames, event channels and the device page are released
   by [Xen.destroy]. Dom0-owned resources are not — hence the explicit
   per-device teardown. *)
let rollback env ~domid ~skeleton ~devices ~xl_nodes ~xl_watch =
  phase
    (fun () -> [ ("domid", string_of_int domid) ])
    "rollback"
    (fun () ->
      if uses_xenstore env then
        xs_teardown env ~domid ~devices:(List.map fst devices) ~xl_watch
          ~xl_nodes ~skeleton
      else
        List.iter
          (fun (dev, ids) ->
            match ids with
            | Some (gref, port) ->
                Backend.abort_precreated env.backend ~domid dev
                  ~grant_ref:gref ~port
            | None -> ())
          devices;
      ignore (Xen.destroy env.xen ~domid))

(* ------------------------------------------------------------------ *)
(* Prepare: phases 1-5 *)

let prepare env ~mem_mb ~vcpus ~nics ~disks ?breakdown () =
  let b = breakdown in
  (* The counter lives in [env], not at module level: a process-global
     counter would be shared mutable state across worker domains and
     would make shell names depend on whatever ran earlier in the
     process. *)
  incr env.shells;
  let shell_name = "chaos-shell-" ^ string_of_int !(env.shells) in
  (* Phase 1: hypervisor reservation. *)
  let reserve () =
    timed b Cat_hypervisor (fun () ->
        inject_phase 1;
        match Xen.create_domain env.xen ~name:shell_name ~vcpus ~mem_mb with
        | Ok dom -> dom
        | Error Xen.ENOMEM -> raise (Create_failed "out of memory")
        | Error _ -> raise (Create_failed "domain creation failed"))
  in
  let dom =
    if Trace.enabled () then begin
      (* The domid only exists once the reservation succeeds, so it is
         attached to the span after the fact. *)
      let sp1 =
        Trace.Span.begin_
          ~attrs:[ ("mode", Mode.name env.mode) ]
          ~category:"create" "phase1:reserve"
      in
      Fun.protect
        ~finally:(fun () -> Trace.Span.end_ sp1)
        (fun () ->
          let dom = reserve () in
          Trace.Span.add_attr sp1 "domid" (string_of_int (Domain.domid dom));
          dom)
    end
    else reserve ()
  in
  let domid = Domain.domid dom in
  let attrs = phase_attrs env domid in
  (* From here on the domain exists, so any failure — injected or
     natural — must release what has been acquired. The two refs record
     how far we got; the handler below rolls back exactly that. *)
  let skeleton = ref false in
  let precreated = ref [] in
  try
    (* Phase 2: compute allocation. *)
    phase attrs "phase2:compute_alloc" (fun () ->
        timed b Cat_toolstack (fun () ->
            inject_phase 2;
            Trace.charge ~category:"toolstack.compute_alloc"
              env.costs.Costs.compute_alloc));
    (* Phase 3: memory reservation (set maxmem). *)
    phase attrs "phase3:set_maxmem" (fun () ->
        timed b Cat_hypervisor (fun () ->
            inject_phase 3;
            Xen.hypercall ~op:"set_maxmem" env.xen ~cost:8.0e-6));
    (* Phase 4: memory preparation, plus the domain's XenStore skeleton. *)
    phase attrs "phase4:populate" (fun () ->
        timed b Cat_hypervisor (fun () ->
            inject_phase 4;
            match Xen.populate_memory env.xen ~domid with
            | Ok () -> ()
            | Error _ ->
                raise (Create_failed "out of memory populating guest RAM"));
        if uses_xenstore env then
          timed b Cat_xenstore (fun () ->
              let dompath = Xs_path.domain_path domid in
              skeleton := true;
              Xs_client.mkdir env.xs dompath;
              (* The guest owns its domain directory (libxl sets this so
                 the domain can populate its own subtree). *)
              Xs_client.set_perms env.xs dompath
                (Lightvm_xenstore.Xs_perms.make ~owner:domid ());
              Xs_client.mkdir env.xs (Xs_path.concat dompath "device");
              Xs_client.mkdir env.xs (Xs_path.concat dompath "control")));
    (* Phase 5: device pre-creation. Under noxs every guest also gets
       the sysctl pseudo-device for power operations (Section 5.1). *)
    let devices =
      List.init nics (fun i -> Device.vif ~devid:i ())
      @ List.init disks (fun i -> Device.vbd ~devid:i ())
      @ (if uses_xenstore env then [] else [ Device.sysctl () ])
    in
    let s_devices =
      phase attrs "phase5:precreate_devices" (fun () ->
          inject_phase 5;
          List.map
            (fun dev ->
              if uses_xenstore env then begin
                precreated := (dev, None) :: !precreated;
                timed b Cat_xenstore (fun () ->
                    (* Backend directory skeleton + the backend's watch.
                       The guest's frontend must be able to read the
                       backend's nodes (state, mac). *)
                    let be = Device.backend_dir ~domid dev in
                    let guest_readable =
                      Lightvm_xenstore.Xs_perms.make ~owner:0
                        ~acl:[ (domid, Lightvm_xenstore.Xs_perms.Read) ]
                        ()
                    in
                    let frontend_id = Xs_path.concat be "frontend-id" in
                    let state = Xs_path.concat be "state" in
                    Xs_client.mkdir env.xs be;
                    Xs_client.set_perms env.xs be guest_readable;
                    Xs_client.write env.xs frontend_id (string_of_int domid);
                    Xs_client.set_perms env.xs frontend_id guest_readable;
                    Xs_client.write env.xs state
                      (Xenbus_front.state_to_wire Xenbus_front.Init_wait);
                    Xs_client.set_perms env.xs state guest_readable;
                    Backend.watch_device env.backend ~domid dev);
                timed b Cat_devices (fun () ->
                    Hotplug.run env.mode.Mode.hotplug ~xen:env.xen
                      ~costs:env.costs dev);
                (dev, None)
              end
              else begin
                let ids =
                  timed b Cat_devices (fun () ->
                      Backend.precreate_device env.backend ~domid dev)
                in
                precreated := (dev, Some ids) :: !precreated;
                timed b Cat_devices (fun () ->
                    Hotplug.run env.mode.Mode.hotplug ~xen:env.xen
                      ~costs:env.costs dev);
                (dev, Some ids)
              end)
            devices)
    in
    { s_domid = domid; s_mem_mb = mem_mb; s_vcpus = vcpus; s_nics = nics;
      s_disks = disks; s_devices }
  with e ->
    rollback env ~domid ~skeleton:!skeleton ~devices:!precreated
      ~xl_nodes:false ~xl_watch:false;
    raise (as_create_failed e)

(* Retire an unused shell: the inverse of a completed [prepare], i.e.
   exactly the rollback [execute] performs before xl's phase-7 state
   exists. Releases the domain, its frames, the XenStore skeleton and
   backend directories (or the noxs pre-created device resources), so a
   pool scale-down restores the host's resource counts bit-exactly. *)
let discard_shell env (shell : shell) =
  rollback env ~domid:shell.s_domid ~skeleton:(uses_xenstore env)
    ~devices:shell.s_devices ~xl_nodes:false ~xl_watch:false

(* ------------------------------------------------------------------ *)
(* Execute: phases 6-9 *)

let xl_extra_entries domid =
  let dompath = Xs_path.domain_path domid in
  let vmpath = vm_path domid in
  Xs_path.
    [
      (vmpath / "uuid", Printf.sprintf "0000-%04d" domid);
      (vmpath / "image" / "ostype", "linux");
      (dompath / "vm", to_string vmpath);
      (dompath / "domid", string_of_int domid);
      (dompath / "memory" / "target", "0");
      (dompath / "memory" / "static-max", "0");
      (dompath / "console" / "ring-ref", "0");
      (dompath / "console" / "port", "0");
      (dompath / "console" / "limit", "65536");
      (dompath / "console" / "type", "xenconsoled");
      (dompath / "store" / "port", "1");
      (dompath / "cpu" / "0" / "availability", "online");
    ]

let init_device_xenstore env ~domid (dev : Device.config) =
  (* Frontend entries, written atomically in a transaction, as libxl
     does ("atomicity is ensured via transactions"). The frontend nodes
     are handed to the guest so its driver can publish the ring. *)
  let fe = Device.frontend_dir ~domid dev in
  let be = Device.backend_dir ~domid dev in
  let be_mac = Xs_path.concat be "mac" in
  let mac = Backend.fresh_mac env.backend in
  let guest_owned = Lightvm_xenstore.Xs_perms.make ~owner:domid () in
  let guest_readable =
    Lightvm_xenstore.Xs_perms.make ~owner:0
      ~acl:[ (domid, Lightvm_xenstore.Xs_perms.Read) ]
      ()
  in
  let entries =
    [
      (Xs_path.concat fe "backend", Xs_path.to_string be);
      (Xs_path.concat fe "backend-id",
       string_of_int dev.Device.backend_domid);
      (Xs_path.concat fe "state",
       Xenbus_front.state_to_wire Xenbus_front.Initialising);
      (Xs_path.concat fe "handle", string_of_int dev.Device.devid);
    ]
  in
  Xs_client.with_transaction env.xs (fun tx ->
      Xs_client.write_many env.xs ~tx entries;
      List.iter
        (fun node -> Xs_client.set_perms env.xs ~tx node guest_owned)
        (fe :: List.map fst entries);
      Xs_client.write env.xs ~tx be_mac mac;
      Xs_client.set_perms env.xs ~tx be_mac guest_readable)

let init_device_noxs env ~domid (dev : Device.config) ids =
  let gref, port =
    match ids with
    | Some ids -> ids
    | None ->
        (* Shell was prepared without this device (should not happen if
           pool flavors match). *)
        Backend.precreate_device env.backend ~domid dev
  in
  (* One hypercall writes the entry into the domain's device page. *)
  let costs = Xen.costs env.xen in
  Xen.hypercall ~op:"devpage_op" env.xen ~cost:costs.Params.devpage_op;
  (match
     Devpage.write_entry (Xen.devpage env.xen) ~caller:0 ~domid
       {
         Devpage.kind = Device.devpage_kind dev.Device.kind;
         devid = dev.Device.devid;
         backend_domid = dev.Device.backend_domid;
         grant_ref = gref;
         evtchn_port = port;
       }
   with
  | Ok () -> ()
  | Error _ -> raise (Create_failed "device page write failed"));
  (dev, gref)

let execute env shell ?config_text ?image_override (cfg : Vmconfig.t)
    ?breakdown () =
  let b = breakdown in
  let t0 = Engine.now () in
  let domid = shell.s_domid in
  let dom =
    match Xen.domain env.xen ~domid with
    | Some dom -> dom
    | None -> raise (Create_failed "shell domain vanished")
  in
  let attrs = phase_attrs env domid in
  (* The shell arrives here owning phases 1-5's resources (under the
     split toolstack it was prepared long ago by the pool daemon), so
     any failure in phases 6-9 must release all of them plus whatever
     phase 7 added. *)
  let xl_nodes = ref false in
  let xl_watch = ref false in
  try
  (* Phase 6: toolstack bookkeeping (libxl: lock files, JSON state,
     event machinery; chaos: a small in-memory record) and
     configuration parsing. *)
  let cfg =
    phase attrs "phase6:parse" (fun () ->
        timed b Cat_toolstack (fun () ->
            inject_phase 6;
            Trace.charge ~category:"toolstack.bookkeeping"
              (if is_xl env then env.costs.Costs.xl_bookkeeping
               else env.costs.Costs.chaos_bookkeeping));
        timed b Cat_parse (fun () ->
            match config_text with
            | None ->
                Trace.charge ~category:"toolstack.config_parse"
                  env.costs.Costs.config_parse_base;
                cfg
            | Some text ->
                Trace.charge ~category:"toolstack.config_parse"
                  (env.costs.Costs.config_parse_base
                  +. (float_of_int (String.length text)
                      *. env.costs.Costs.config_parse_per_byte));
                (match Vmconfig.parse text with
                | Ok parsed -> parsed
                | Error msg ->
                    raise (Create_failed ("config parse error: " ^ msg)))))
  in
  (* Phase 7: device initialization. *)
  let noxs_grants =
    phase attrs "phase7:init_devices" (fun () ->
        inject_phase 7;
        Domain.set_name dom cfg.Vmconfig.name;
        if uses_xenstore env then begin
          (* libxl resolves names by scanning every guest, several
             times per command. *)
          timed b Cat_xenstore (fun () ->
              for i = 1 to
                (if is_xl env then env.costs.Costs.xl_name_scans
                 else env.costs.Costs.chaos_name_scans)
              do
                let names = scan_domain_names env in
                if i = 1 && List.mem cfg.Vmconfig.name names then
                  raise
                    (Create_failed
                       ("domain already exists: " ^ cfg.Vmconfig.name))
              done;
              (* xl registers the guest name in the store, which
                 triggers the daemon's uniqueness scan over every
                 running guest. chaos leans on the paper's observation
                 that "the name ... is kept in the XenStore but is not
                 needed during boot": it keeps the name in the
                 hypervisor record only. *)
              if is_xl env then begin
                xl_nodes := true;
                Xs_client.write env.xs
                  (Xs_path.concat (Xs_path.domain_path domid) "name")
                  cfg.Vmconfig.name
              end;
              if is_xl env then begin
                Xs_client.write_many env.xs (xl_extra_entries domid);
                (* The xl daemon watches every guest's shutdown node to
                   track domain lifecycle — one more registry entry per
                   VM that every later write must be checked against. *)
                xl_watch := true;
                Xs_client.watch env.xs ~path:(shutdown_path domid)
                  ~token:(shutdown_watch_token domid)
                  ~deliver:(fun _ -> ())
              end)
        end;
        let noxs_grants =
          if uses_xenstore env then begin
            timed b Cat_xenstore (fun () ->
                List.iter
                  (fun (dev, _) -> init_device_xenstore env ~domid dev)
                  shell.s_devices);
            []
          end
          else
            timed b Cat_devices (fun () ->
                List.map
                  (fun (dev, ids) -> init_device_noxs env ~domid dev ids)
                  shell.s_devices)
        in
        (if is_xl env then
           timed b Cat_toolstack (fun () ->
               Trace.charge ~category:"toolstack.console_setup"
                 env.costs.Costs.xl_console_setup));
        noxs_grants)
  in
  (* Phase 8: image build — parse the kernel image and lay it out in
     guest memory (linear in image size; Figure 2). *)
  let image =
    match image_override with
    | Some image -> image
    | None -> (
        match Vmconfig.image cfg with
        | Some image -> image
        | None ->
            raise
              (Create_failed ("unknown kernel image: " ^ cfg.Vmconfig.kernel)))
  in
  phase attrs "phase8:build" (fun () ->
      inject_phase 8;
      (if is_xl env then
         match image.Image.kind with
         | Image.Tinyx _ | Image.Debian ->
             timed b Cat_toolstack (fun () ->
                 Trace.charge ~category:"toolstack.pv_build"
                   env.costs.Costs.xl_pv_build_extra)
         | Image.Unikernel _ -> ());
      timed b Cat_load (fun () ->
          match
            Xen.load_image env.xen ~domid ~size_mb:image.Image.kernel_mb
          with
          | Ok () -> ()
          | Error _ -> raise (Create_failed "image load failed")));
  (* Phase 9: boot. *)
  phase attrs "phase9:boot" (fun () ->
      timed b Cat_hypervisor (fun () ->
          inject_phase 9;
          match Xen.unpause env.xen ~domid with
          | Ok () -> ()
          | Error _ -> raise (Create_failed "unpause failed")));
  let devices = List.map fst shell.s_devices in
  let registry =
    if uses_xenstore env then
      Guest.Xenbus (Xs_client.connect env.xs_server ~domid)
    else Guest.Noxs env.ctrl
  in
  let guest =
    Guest.start ~xen:env.xen ~registry ~domid ~image ~devices ()
  in
  let create_time = Engine.now () -. t0 in
  {
    domid;
    vm_name = cfg.Vmconfig.name;
    config = cfg;
    guest;
    devices;
    noxs_grants;
    create_time;
    breakdown =
      (match b with Some b -> b | None -> breakdown_create ());
  }
  with e ->
    rollback env ~domid ~skeleton:(uses_xenstore env)
      ~devices:shell.s_devices ~xl_nodes:!xl_nodes ~xl_watch:!xl_watch;
    raise (as_create_failed e)

let create env ?config_text ?image_override cfg =
  let b = breakdown_create () in
  let t0 = Engine.now () in
  let mem_mb = effective_mem_mb env cfg in
  let shell =
    prepare env ~mem_mb ~vcpus:cfg.Vmconfig.vcpus
      ~nics:(List.length cfg.Vmconfig.vifs)
      ~disks:(List.length cfg.Vmconfig.disks)
      ~breakdown:b ()
  in
  let created =
    execute env shell ?config_text ?image_override cfg ~breakdown:b ()
  in
  { created with create_time = Engine.now () -. t0 }

(* ------------------------------------------------------------------ *)

let destroy env created =
  Guest.shutdown created.guest;
  let domid = created.domid in
  if uses_xenstore env then
    xs_teardown env ~domid ~devices:created.devices ~xl_watch:(is_xl env)
      ~xl_nodes:(is_xl env) ~skeleton:true
  else
    List.iter
      (fun (dev, gref) ->
        Backend.destroy_device env.backend ~domid dev ~grant_ref:gref)
      created.noxs_grants;
  (match Xen.destroy env.xen ~domid with
  | Ok () -> ()
  | Error _ -> ());
  (* The backend's control-page grants can only be freed once the dying
     guest's foreign mappings are gone, i.e. after the domain destroy.
     They are Dom0-owned, so [Xen.destroy] itself never reclaims them;
     the gnttab free is part of the [noxs_device_destroy] work already
     charged by [Backend.destroy_device] above. *)
  if not (uses_xenstore env) then
    List.iter
      (fun ((dev : Device.config), gref) ->
        ignore
          (Lightvm_hv.Gnttab.end_access (Xen.gnttab env.xen)
             ~owner:dev.Device.backend_domid gref))
      created.noxs_grants
