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
let phase_attrs env domid =
  [ ("domid", string_of_int domid); ("mode", Mode.name env.mode) ]

(* Under noxs, [s_ids] holds device [i]'s control-page grant at [2i] and
   its event-channel port at [2i + 1], as phase 5 pre-created them; it is
   empty under XenStore. *)
type shell = {
  s_domid : int;
  s_devices : Device.config list;
  s_ids : int array;
}

type created = {
  domid : int;
  vm_name : string;
  config : Vmconfig.t;
  guest : Guest.t;
  devices : Device.config list;
  noxs_ids : int array;
  create_time : float;
  breakdown : breakdown;
}

(* One pipeline call's progress: how far it got, which is exactly what
   its rollback releases, and the spans it has open, which a failure
   closes innermost first. Each phase is straight-line code: it opens
   its span (category "create") only when tracing is on, and each slice
   of it adds its clock delta to its category's share of the breakdown
   and opens a span under the category's name only when tracing is on
   and the caller keeps a breakdown. A span opens and closes at the two
   clock reads of its slice, so its duration is exactly what the
   breakdown adds. *)
type progress = {
  mutable phase : Trace.Span.t;
  mutable slice : Trace.Span.t;
  mutable skeleton : bool;  (* the /local/domain/<domid> subtree exists *)
  mutable started : int;  (* devices whose phase-5 pre-creation started *)
  mutable xl_nodes : bool;  (* xl's name and /vm/<domid> nodes exist *)
  mutable xl_watch : bool;  (* xl's shutdown watch exists *)
}

let progress () =
  {
    phase = Trace.Span.none;
    slice = Trace.Span.none;
    skeleton = false;
    started = 0;
    xl_nodes = false;
    xl_watch = false;
  }

let phase_begin p env domid name =
  if Trace.enabled () then
    p.phase <-
      Trace.Span.begin_ ~attrs:(phase_attrs env domid) ~category:"create" name

let phase_end p =
  Trace.Span.end_ p.phase;
  p.phase <- Trace.Span.none

let[@inline] slice_begin p (b : breakdown option) cat =
  (match b with
  | Some _ when Trace.enabled () ->
      let name = category_name cat in
      p.slice <- Trace.Span.begin_ ~category:name name
  | Some _ | None -> ());
  Engine.now ()

let[@inline] slice_end p (b : breakdown option) cat t0 =
  Trace.Span.end_ p.slice;
  p.slice <- Trace.Span.none;
  match b with
  | Some b ->
      let i = category_index cat in
      b.(i) <- b.(i) +. (Engine.now () -. t0)
  | None -> ()

let close_spans p =
  Trace.Span.end_ p.slice;
  p.slice <- Trace.Span.none;
  phase_end p

(* The pipeline's own abort, raised from inside a phase and caught at
   the phase's rollback point. *)
exception Abort of string

(* Injected phase failure (fault point "create.phaseN"): the phase's
   dominant operation reports an error after the toolstack has already
   committed to the phase, so the caller must roll back. *)
let phase_points =
  Array.init 9 (fun i -> Fault.point (Printf.sprintf "create.phase%d" (i + 1)))

let injected n = Printf.sprintf "injected fault: phase %d failed" n

let inject_phase n =
  if Fault.fire phase_points.(n - 1) then raise (Abort (injected n))

(* A failure the toolstack expects becomes the reason of an [Error];
   anything else is a bug and goes on up. *)
let failure_reason = function
  | Abort reason | Backend.Alloc_failed reason | Hotplug.Timeout reason ->
      reason
  | Xs_error.Error e -> Xs_error.to_string e
  | e -> Printexc.raise_with_backtrace e (Printexc.get_raw_backtrace ())

let[@inline] effective_mem_mb env (cfg : Vmconfig.t) =
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

let rec xs_teardown_devices env ~domid = function
  | [] -> ()
  | dev :: rest ->
      unwatch_device env ~domid dev;
      (* Remove the per-guest level, not just the device node: the first
         backend write implicitly created .../backend/<kind>/<domid>,
         which would otherwise leak one empty directory per guest. *)
      (try Xs_client.rm env.xs (Device.backend_domain_dir ~domid dev)
       with Xs_error.Error _ -> ());
      xs_teardown_devices env ~domid rest

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
  xs_teardown_devices env ~domid devices;
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
   performs the same operations it always did. [devices] are the
   pre-created devices to undo, in the order to undo them, each with its
   index into [ids]; under noxs that locates its grant, ctrl page and
   event channel.

   Guest-owned frames, event channels and the device page are released
   by [Xen.destroy]. Dom0-owned resources are not — hence the explicit
   per-device teardown. *)
let rollback env ~domid ~skeleton ~devices ~ids ~xl_nodes ~xl_watch =
  let sp =
    if Trace.enabled () then
      Trace.Span.begin_
        ~attrs:[ ("domid", string_of_int domid) ]
        ~category:"create" "rollback"
    else Trace.Span.none
  in
  match
    if uses_xenstore env then
      xs_teardown env ~domid ~devices:(List.map snd devices) ~xl_watch
        ~xl_nodes ~skeleton
    else
      List.iter
        (fun (i, dev) ->
          Backend.abort_precreated env.backend ~domid dev
            ~grant_ref:ids.(2 * i) ~port:ids.((2 * i) + 1))
        devices;
    ignore (Xen.destroy env.xen ~domid)
  with
  | () -> Trace.Span.end_ sp
  | exception e ->
      Trace.Span.end_ sp;
      raise e

(* The first [n] devices with their indices, last first: what a failed
   phase 5 undoes, in the order it undoes them. *)
let started_devices devices n =
  List.rev
    (List.filteri (fun i _ -> i < n) (List.mapi (fun i d -> (i, d)) devices))

(* ------------------------------------------------------------------ *)
(* Prepare: phases 1-5 *)

(* The guest's domain directory, which the guest owns (libxl sets this
   so the domain can populate its own subtree). *)
let xs_skeleton env ~domid =
  let dompath = Xs_path.domain_path domid in
  Xs_client.mkdir env.xs dompath;
  Xs_client.set_perms env.xs dompath
    (Lightvm_xenstore.Xs_perms.make ~owner:domid ());
  Xs_client.mkdir env.xs (Xs_path.concat dompath "device");
  Xs_client.mkdir env.xs (Xs_path.concat dompath "control")

(* A device's backend directory skeleton and the backend's watch. The
   guest's frontend must be able to read the backend's nodes (state,
   mac). *)
let xs_backend_dir env ~domid dev =
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
  Backend.watch_device env.backend ~domid dev

(* Phase 5, device [i] on. Under XenStore a device counts as started
   before its directory is built, since a half-built one must be torn
   down too; under noxs only once the backend has pre-created it, since
   a failed pre-creation releases what it allocated. *)
let rec precreate_devices env p b ~domid ids i = function
  | [] -> ()
  | dev :: rest ->
      if uses_xenstore env then begin
        p.started <- i + 1;
        let t0 = slice_begin p b Cat_xenstore in
        xs_backend_dir env ~domid dev;
        slice_end p b Cat_xenstore t0
      end
      else begin
        let t0 = slice_begin p b Cat_devices in
        let gref, port = Backend.precreate_device env.backend ~domid dev in
        slice_end p b Cat_devices t0;
        ids.(2 * i) <- gref;
        ids.((2 * i) + 1) <- port;
        p.started <- i + 1
      end;
      let t0 = slice_begin p b Cat_devices in
      Hotplug.run env.mode.Mode.hotplug ~xen:env.xen ~costs:env.costs dev;
      slice_end p b Cat_devices t0;
      precreate_devices env p b ~domid ids (i + 1) rest

(* Under noxs every guest also gets the sysctl pseudo-device for power
   operations (Section 5.1). Device configs are immutable, so every
   shell shares this one. *)
let noxs_sysctl = [ Device.sysctl () ]

let shell_devices env ~nics ~disks =
  List.init nics (fun i -> Device.vif ~devid:i ())
  @ List.init disks (fun i -> Device.vbd ~devid:i ())
  @ if uses_xenstore env then [] else noxs_sysctl

let prepare env ~mem_mb ~vcpus ~nics ~disks ?breakdown () =
  let b = breakdown in
  (* The counter lives in [env], not at module level: a process-global
     counter would be shared mutable state across worker domains and
     would make shell names depend on whatever ran earlier in the
     process. *)
  incr env.shells;
  let shell_name = "chaos-shell-" ^ string_of_int !(env.shells) in
  let p = progress () in
  (* Phase 1: hypervisor reservation. Nothing exists before it, so its
     failure needs no rollback. The domid only exists once the
     reservation succeeds, so it is attached to the span after the
     fact. *)
  if Trace.enabled () then
    p.phase <-
      Trace.Span.begin_
        ~attrs:[ ("mode", Mode.name env.mode) ]
        ~category:"create" "phase1:reserve";
  let t0 = slice_begin p b Cat_hypervisor in
  let reserved =
    if Fault.fire phase_points.(0) then Error (injected 1)
    else
      match Xen.create_domain env.xen ~name:shell_name ~vcpus ~mem_mb with
      | Ok dom -> Ok (Domain.domid dom)
      | Error Xen.ENOMEM -> Error "out of memory"
      | Error _ -> Error "domain creation failed"
  in
  slice_end p b Cat_hypervisor t0;
  (match reserved with
  | Ok domid when Trace.enabled () ->
      Trace.Span.add_attr p.phase "domid" (string_of_int domid)
  | Ok _ | Error _ -> ());
  phase_end p;
  match reserved with
  | Error reason -> Error reason
  | Ok domid -> (
      (* From here on the domain exists, so any failure — injected or
         natural — must release what has been acquired: [p] records how
         far we got, and the handler below rolls back exactly that. *)
      let devices = shell_devices env ~nics ~disks in
      let ids =
        if uses_xenstore env then [||]
        else Array.make (2 * List.length devices) 0
      in
      match
        (* Phase 2: compute allocation. *)
        phase_begin p env domid "phase2:compute_alloc";
        let t0 = slice_begin p b Cat_toolstack in
        inject_phase 2;
        Trace.charge ~category:"toolstack.compute_alloc"
          env.costs.Costs.compute_alloc;
        slice_end p b Cat_toolstack t0;
        phase_end p;
        (* Phase 3: memory reservation (set maxmem). *)
        phase_begin p env domid "phase3:set_maxmem";
        let t0 = slice_begin p b Cat_hypervisor in
        inject_phase 3;
        Xen.hypercall ~op:"set_maxmem" env.xen ~cost:8.0e-6;
        slice_end p b Cat_hypervisor t0;
        phase_end p;
        (* Phase 4: memory preparation, plus the domain's XenStore
           skeleton. *)
        phase_begin p env domid "phase4:populate";
        let t0 = slice_begin p b Cat_hypervisor in
        inject_phase 4;
        (match Xen.populate_memory env.xen ~domid with
        | Ok () -> ()
        | Error _ -> raise (Abort "out of memory populating guest RAM"));
        slice_end p b Cat_hypervisor t0;
        if uses_xenstore env then begin
          let t0 = slice_begin p b Cat_xenstore in
          p.skeleton <- true;
          xs_skeleton env ~domid;
          slice_end p b Cat_xenstore t0
        end;
        phase_end p;
        (* Phase 5: device pre-creation. *)
        phase_begin p env domid "phase5:precreate_devices";
        inject_phase 5;
        precreate_devices env p b ~domid ids 0 devices;
        phase_end p;
        { s_domid = domid; s_devices = devices; s_ids = ids }
      with
      | shell -> Ok shell
      | exception e ->
          close_spans p;
          let reason = failure_reason e in
          rollback env ~domid ~skeleton:p.skeleton
            ~devices:(started_devices devices p.started)
            ~ids ~xl_nodes:false ~xl_watch:false;
          Error reason)

(* Every device of a shell with its index, in order: what a rollback
   after a completed [prepare] undoes. *)
let all_devices shell = List.mapi (fun i d -> (i, d)) shell.s_devices

(* Retire an unused shell: the inverse of a completed [prepare], i.e.
   exactly the rollback [execute] performs before xl's phase-7 state
   exists. Releases the domain, its frames, the XenStore skeleton and
   backend directories (or the noxs pre-created device resources), so a
   pool scale-down restores the host's resource counts bit-exactly. *)
let discard_shell env (shell : shell) =
  rollback env ~domid:shell.s_domid ~skeleton:(uses_xenstore env)
    ~devices:(all_devices shell) ~ids:shell.s_ids ~xl_nodes:false
    ~xl_watch:false

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

let rec init_devices_xenstore env ~domid = function
  | [] -> ()
  | dev :: rest ->
      init_device_xenstore env ~domid dev;
      init_devices_xenstore env ~domid rest

(* One hypercall per device writes its entry into the domain's device
   page. *)
let rec init_devices_noxs env ~domid ids i = function
  | [] -> ()
  | (dev : Device.config) :: rest ->
      let costs = Xen.costs env.xen in
      Xen.hypercall ~op:"devpage_op" env.xen ~cost:costs.Params.devpage_op;
      (match
         Devpage.write_entry (Xen.devpage env.xen) ~caller:0 ~domid
           {
             Devpage.kind = Device.devpage_kind dev.Device.kind;
             devid = dev.Device.devid;
             backend_domid = dev.Device.backend_domid;
             grant_ref = ids.(2 * i);
             evtchn_port = ids.((2 * i) + 1);
           }
       with
      | Ok () -> ()
      | Error _ -> raise (Abort "device page write failed"));
      init_devices_noxs env ~domid ids (i + 1) rest

(* libxl resolves names by scanning every guest, several times per
   command. xl also registers the guest name in the store, which
   triggers the daemon's uniqueness scan over every running guest.
   chaos leans on the paper's observation that "the name ... is kept
   in the XenStore but is not needed during boot": it keeps the name in
   the hypervisor record only. *)
let xs_register_name env p ~domid name =
  for i = 1 to
    if is_xl env then env.costs.Costs.xl_name_scans
    else env.costs.Costs.chaos_name_scans
  do
    let names = scan_domain_names env in
    if i = 1 && List.mem name names then
      raise (Abort ("domain already exists: " ^ name))
  done;
  if is_xl env then begin
    p.xl_nodes <- true;
    Xs_client.write env.xs
      (Xs_path.concat (Xs_path.domain_path domid) "name")
      name;
    Xs_client.write_many env.xs (xl_extra_entries domid);
    (* The xl daemon watches every guest's shutdown node to track
       domain lifecycle — one more registry entry per VM that every
       later write must be checked against. *)
    p.xl_watch <- true;
    Xs_client.watch env.xs ~path:(shutdown_path domid)
      ~token:(shutdown_watch_token domid)
      ~deliver:(fun _ -> ())
  end

let execute env shell ~since ?config_text ?image_override (cfg : Vmconfig.t)
    ?breakdown () =
  let b = breakdown in
  let domid = shell.s_domid in
  match Xen.find_domain env.xen ~domid with
  | exception Not_found -> Error "shell domain vanished"
  | dom -> (
      (* The shell arrives here owning phases 1-5's resources (under the
         split toolstack it was prepared long ago by the pool daemon), so
         any failure in phases 6-9 must release all of them plus whatever
         phase 7 added. *)
      let p = progress () in
      match
        (* Phase 6: toolstack bookkeeping (libxl: lock files, JSON state,
           event machinery; chaos: a small in-memory record) and
           configuration parsing. *)
        phase_begin p env domid "phase6:parse";
        let t0 = slice_begin p b Cat_toolstack in
        inject_phase 6;
        Trace.charge ~category:"toolstack.bookkeeping"
          (if is_xl env then env.costs.Costs.xl_bookkeeping
           else env.costs.Costs.chaos_bookkeeping);
        slice_end p b Cat_toolstack t0;
        let t0 = slice_begin p b Cat_parse in
        let cfg =
          match config_text with
          | None ->
              Trace.charge ~category:"toolstack.config_parse"
                env.costs.Costs.config_parse_base;
              cfg
          | Some text -> (
              Trace.charge ~category:"toolstack.config_parse"
                (env.costs.Costs.config_parse_base
                +. (float_of_int (String.length text)
                    *. env.costs.Costs.config_parse_per_byte));
              match Vmconfig.parse text with
              | Ok parsed -> parsed
              | Error msg -> raise (Abort ("config parse error: " ^ msg)))
        in
        slice_end p b Cat_parse t0;
        phase_end p;
        (* Phase 7: device initialization. *)
        phase_begin p env domid "phase7:init_devices";
        inject_phase 7;
        Domain.set_name dom cfg.Vmconfig.name;
        if uses_xenstore env then begin
          let t0 = slice_begin p b Cat_xenstore in
          xs_register_name env p ~domid cfg.Vmconfig.name;
          slice_end p b Cat_xenstore t0;
          let t0 = slice_begin p b Cat_xenstore in
          init_devices_xenstore env ~domid shell.s_devices;
          slice_end p b Cat_xenstore t0
        end
        else begin
          let t0 = slice_begin p b Cat_devices in
          init_devices_noxs env ~domid shell.s_ids 0 shell.s_devices;
          slice_end p b Cat_devices t0
        end;
        if is_xl env then begin
          let t0 = slice_begin p b Cat_toolstack in
          Trace.charge ~category:"toolstack.console_setup"
            env.costs.Costs.xl_console_setup;
          slice_end p b Cat_toolstack t0
        end;
        phase_end p;
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
                    (Abort ("unknown kernel image: " ^ cfg.Vmconfig.kernel)))
        in
        phase_begin p env domid "phase8:build";
        inject_phase 8;
        (if is_xl env then
           match image.Image.kind with
           | Image.Tinyx _ | Image.Debian ->
               let t0 = slice_begin p b Cat_toolstack in
               Trace.charge ~category:"toolstack.pv_build"
                 env.costs.Costs.xl_pv_build_extra;
               slice_end p b Cat_toolstack t0
           | Image.Unikernel _ -> ());
        let t0 = slice_begin p b Cat_load in
        (match
           Xen.load_image env.xen ~domid ~size_mb:image.Image.kernel_mb
         with
        | Ok () -> ()
        | Error _ -> raise (Abort "image load failed"));
        slice_end p b Cat_load t0;
        phase_end p;
        (* Phase 9: boot. *)
        phase_begin p env domid "phase9:boot";
        let t0 = slice_begin p b Cat_hypervisor in
        inject_phase 9;
        (match Xen.unpause env.xen ~domid with
        | Ok () -> ()
        | Error _ -> raise (Abort "unpause failed"));
        slice_end p b Cat_hypervisor t0;
        phase_end p;
        let registry =
          if uses_xenstore env then
            Guest.Xenbus (Xs_client.connect env.xs_server ~domid)
          else Guest.Noxs env.ctrl
        in
        let guest =
          Guest.start ~xen:env.xen ~registry ~domid ~image
            ~devices:shell.s_devices ()
        in
        {
          domid;
          vm_name = cfg.Vmconfig.name;
          config = cfg;
          guest;
          devices = shell.s_devices;
          noxs_ids = shell.s_ids;
          create_time = Engine.now () -. since;
          breakdown =
            (match b with Some b -> b | None -> breakdown_create ());
        }
      with
      | created -> Ok created
      | exception e ->
          close_spans p;
          let reason = failure_reason e in
          rollback env ~domid ~skeleton:(uses_xenstore env)
            ~devices:(all_devices shell) ~ids:shell.s_ids
            ~xl_nodes:p.xl_nodes ~xl_watch:p.xl_watch;
          Error reason)

let create env ?config_text ?image_override cfg =
  let b = breakdown_create () in
  let since = Engine.now () in
  let mem_mb = effective_mem_mb env cfg in
  match
    prepare env ~mem_mb ~vcpus:cfg.Vmconfig.vcpus
      ~nics:(List.length cfg.Vmconfig.vifs)
      ~disks:(List.length cfg.Vmconfig.disks)
      ~breakdown:b ()
  with
  | Error reason -> Error reason
  | Ok shell ->
      execute env shell ~since ?config_text ?image_override cfg ~breakdown:b ()

(* ------------------------------------------------------------------ *)

(* Not yet optimized in the noxs prototype (Section 6.2): each live
   device's backend teardown is charged on its own. *)
let rec destroy_noxs_devices env ~domid ids i = function
  | [] -> ()
  | dev :: rest ->
      Backend.destroy_device env.backend ~domid dev ~grant_ref:ids.(2 * i);
      destroy_noxs_devices env ~domid ids (i + 1) rest

(* The backend's control-page grants can only be freed once the dying
   guest's foreign mappings are gone, i.e. after the domain destroy.
   They are Dom0-owned, so [Xen.destroy] itself never reclaims them;
   the gnttab free is part of the [noxs_device_destroy] work already
   charged by [Backend.destroy_device]. *)
let rec end_noxs_grants env ids i = function
  | [] -> ()
  | (dev : Device.config) :: rest ->
      ignore
        (Lightvm_hv.Gnttab.end_access (Xen.gnttab env.xen)
           ~owner:dev.Device.backend_domid ids.(2 * i));
      end_noxs_grants env ids (i + 1) rest

let destroy env created =
  Guest.shutdown created.guest;
  let domid = created.domid in
  if uses_xenstore env then
    xs_teardown env ~domid ~devices:created.devices ~xl_watch:(is_xl env)
      ~xl_nodes:(is_xl env) ~skeleton:true
  else destroy_noxs_devices env ~domid created.noxs_ids 0 created.devices;
  (match Xen.destroy env.xen ~domid with
  | Ok () -> ()
  | Error _ -> ());
  if not (uses_xenstore env) then
    end_noxs_grants env created.noxs_ids 0 created.devices
