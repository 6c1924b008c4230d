module Engine = Lightvm_sim.Engine
module Params = Lightvm_hv.Params
module Xen = Lightvm_hv.Xen
module Image = Lightvm_guest.Image
module Guest = Lightvm_guest.Guest
module Mode = Lightvm_toolstack.Mode
module Vmconfig = Lightvm_toolstack.Vmconfig
module Toolstack = Lightvm_toolstack.Toolstack
module Create = Lightvm_toolstack.Create
module Checkpoint = Lightvm_toolstack.Checkpoint
module Migrate = Lightvm_toolstack.Migrate
module Pool = Lightvm_toolstack.Pool

let api_version = "lightvm-vmm/0.1"

type vm_state = Created | Running | Paused

let vm_state_name = function
  | Created -> "created"
  | Running -> "running"
  | Paused -> "paused"

type error =
  | Vm_not_found of int
  | Vm_bad_state of { domid : int; state : vm_state; op : string }
  | Vm_failed of { op : string; reason : string }
  | Vm_migration_failed of string

let error_to_string = function
  | Vm_not_found domid -> Printf.sprintf "no such VM: domid %d" domid
  | Vm_bad_state { domid; state; op } ->
      Printf.sprintf "%s: domid %d is %s" op domid (vm_state_name state)
  | Vm_failed { op; reason } -> op ^ " failed: " ^ reason
  | Vm_migration_failed msg -> "migration failed: " ^ msg

type vm_create_request = {
  req_name : string option;
  req_image : Image.t;
  req_nics : int;
  req_disks : int;
  req_config_text : string option;
}

let vm_request ?name ?(nics = 1) ?(disks = 0) ?config_text image =
  {
    req_name = name;
    req_image = image;
    req_nics = nics;
    req_disks = disks;
    req_config_text = config_text;
  }

type vm_info = {
  vi_domid : int;
  vi_name : string;
  vi_state : vm_state;
  vi_image : string;
  vi_memory_mb : float;
  vi_vcpus : int;
  vi_nics : int;
  vi_disks : int;
}

type vm_counters = {
  vc_create_s : float;
  vc_boot_s : float;
  vc_breakdown : (string * float) list;
}

type ping = { pg_version : string; pg_host_id : int; pg_vm_count : int }

(* One live VM. [created] is the pipeline handle; [awaited]
   distinguishes a VM whose guest has been waited for (so a resume
   returns it to [Running] rather than [Created]). *)
type vm_record = {
  created : Create.created;
  t_created : float;  (* Engine.now at registration, for boot_s *)
  mutable state : vm_state;
  mutable awaited : bool;
  mutable boot_s : float;
}

(* A shell pool serves one flavour: the shape a shell is prepared
   with. *)
type flavor = { mem_mb : float; vcpus : int; nics : int; disks : int }

(* [vms] is the host's VM registry, keyed by domid: a VM enters it when
   its creation, restore or incoming migration returns and leaves it
   when it is deleted, snapshotted or migrated away, so it holds a VM
   exactly when the VM's domain exists. Domids are never reused, so
   nothing else may keep a per-domid entry. [pools] are the split
   toolstack's shells, [pool_target] per flavor. *)
type t = {
  host_id : int;
  xen : Xen.t;
  ts : Toolstack.t;
  pool_target : int;
  pools : (flavor, Create.shell Pool.t) Hashtbl.t;
  mutable counter : int;
  vms : (int, vm_record) Hashtbl.t;
}

let create ?(host_id = 0) ?(platform = Params.xeon_e5_1630)
    ?(mode = Mode.lightvm) ?xs_profile ?costs ?(pool_target = 8) () =
  let xen = Xen.boot ~platform () in
  let ts = Toolstack.make ~xen ~mode ?xs_profile ?costs () in
  { host_id; xen; ts; pool_target; pools = Hashtbl.create 8; counter = 0;
    vms = Hashtbl.create 64 }

let xen t = t.xen
let toolstack t = t.ts
let mode t = Toolstack.mode t.ts
let platform t = Xen.platform t.xen
let vm_count t = Hashtbl.length t.vms

let fresh_name t image =
  t.counter <- t.counter + 1;
  image.Image.name ^ "-" ^ string_of_int t.counter

let config_for t ?name ?(nics = 1) ?(disks = 0) image =
  let name = match name with Some n -> n | None -> fresh_name t image in
  Vmconfig.for_image ~nics ~disks ~name image

let override_for image =
  (* Images built on the fly (inflated or Tinyx-custom) are not in the
     static registry; hand them to the pipeline directly. Physical
     equality suffices — registry images are shared values — and avoids
     a deep structural compare on every single VM creation. *)
  match Image.find image.Image.name with
  | Some registered when registered == image -> None
  | _ -> Some image

let lookup t ~domid =
  match Hashtbl.find_opt t.vms domid with
  | Some r -> Ok r
  | None -> Error (Vm_not_found domid)

let info_of (r : vm_record) =
  let cfg = r.created.Create.config in
  {
    vi_domid = r.created.Create.domid;
    vi_name = r.created.Create.vm_name;
    vi_state = r.state;
    vi_image = cfg.Vmconfig.kernel;
    vi_memory_mb = cfg.Vmconfig.memory_mb;
    vi_vcpus = cfg.Vmconfig.vcpus;
    vi_nics = List.length cfg.Vmconfig.vifs;
    vi_disks = List.length cfg.Vmconfig.disks;
  }

let register t (created : Create.created) =
  let r =
    {
      created;
      t_created = Engine.now ();
      state = Created;
      awaited = false;
      boot_s = 0.;
    }
  in
  Hashtbl.replace t.vms created.Create.domid r;
  r

(* ------------------------------------------------------------------ *)
(* Shell pools *)

let split t = (Toolstack.mode t.ts).Mode.split

let pool_for t (cfg : Vmconfig.t) =
  let env = Toolstack.env t.ts in
  let key =
    {
      mem_mb = Create.effective_mem_mb env cfg;
      vcpus = cfg.Vmconfig.vcpus;
      nics = List.length cfg.Vmconfig.vifs;
      disks = List.length cfg.Vmconfig.disks;
    }
  in
  match Hashtbl.find_opt t.pools key with
  | Some pool -> pool
  | None ->
      let { mem_mb; vcpus; nics; disks } = key in
      let pool =
        Pool.create ~target:t.pool_target ~make:(fun () ->
            Create.prepare env ~mem_mb ~vcpus ~nics ~disks ())
      in
      Hashtbl.replace t.pools key pool;
      pool

(* The pool of an image's flavor. *)
let template_pool t image ~nics ~disks =
  pool_for t (config_for t ~name:"pool-template" ~nics ~disks image)

(* The split toolstack executes a pooled shell, so [create_time] covers
   only phases 6-9 (and a synchronous prepare when the pool is empty);
   the other modes run the whole pipeline inline. *)
let create_vm t ?config_text ?image_override cfg =
  if split t then begin
    let since = Engine.now () in
    let breakdown = Create.breakdown_create () in
    match Pool.take (pool_for t cfg) with
    | Error reason -> Error reason
    | Ok shell ->
        Create.execute (Toolstack.env t.ts) shell ~since ?config_text
          ?image_override cfg ~breakdown ()
  end
  else Create.create (Toolstack.env t.ts) ?config_text ?image_override cfg

let prefill_pool t image ~nics ~disks =
  if split t then Pool.prefill (template_pool t image ~nics ~disks)

let pool_target t image ~nics ~disks =
  if split t then Pool.target (template_pool t image ~nics ~disks) else 0

(* Scale the flavor's pool: raising the target leaves refilling to the
   next take (or an explicit [prefill_pool]); lowering it retires the
   surplus shells immediately through the full prepare-inverse, so no
   domain, frame or store node outlives the scale-down. *)
let set_pool_target t image ~nics ~disks target =
  if split t then begin
    let pool = template_pool t image ~nics ~disks in
    Pool.set_target pool target;
    let rec drain () =
      match Pool.take_surplus pool with
      | None -> ()
      | Some shell ->
          Create.discard_shell (Toolstack.env t.ts) shell;
          drain ()
    in
    drain ()
  end

let pool_stats t image ~nics ~disks =
  if split t then
    let pool = template_pool t image ~nics ~disks in
    (Pool.hits pool, Pool.takes pool)
  else (0, 0)

(* ------------------------------------------------------------------ *)
(* The lifecycle API *)

let ping t =
  { pg_version = api_version; pg_host_id = t.host_id;
    pg_vm_count = vm_count t }

let guest_mem_kb t = Xen.guest_mem_kb t.xen

let vm_create t req =
  let cfg =
    config_for t ?name:req.req_name ~nics:req.req_nics ~disks:req.req_disks
      req.req_image
  in
  match
    create_vm t ?config_text:req.req_config_text
      ?image_override:(override_for req.req_image) cfg
  with
  | Error reason -> Error (Vm_failed { op = "vm.create"; reason })
  | Ok created -> Ok (info_of (register t created))

let vm_boot t ~domid =
  match lookup t ~domid with
  | Error err -> Error err
  | Ok r -> (
      match r.state with
      | Paused -> Error (Vm_bad_state { domid; state = Paused; op = "vm.boot" })
      | Running -> Ok ()
      | Created ->
          (* Only a VM never awaited is [Created] ([vm_resume] returns an
             awaited one to [Running]). [t_created] is stamped when the
             creation call returns, so this is exactly the guest-boot
             wait. *)
          Guest.wait_ready r.created.Create.guest;
          r.boot_s <- Engine.now () -. r.t_created;
          r.awaited <- true;
          r.state <- Running;
          Ok ())

let hv_err ~domid ~op = function
  | Xen.ENOENT -> Vm_not_found domid
  | Xen.ENOMEM -> Vm_failed { op; reason = "out of memory" }
  | Xen.EINVAL -> Vm_failed { op; reason = "invalid domain state" }

let vm_pause t ~domid =
  match lookup t ~domid with
  | Error err -> Error err
  | Ok r -> (
      match r.state with
      | Paused ->
          Error (Vm_bad_state { domid; state = Paused; op = "vm.pause" })
      | Created | Running -> (
          match Xen.pause t.xen ~domid with
          | Ok () ->
              r.state <- Paused;
              Ok ()
          | Error e -> Error (hv_err ~domid ~op:"vm.pause" e)))

let vm_resume t ~domid =
  match lookup t ~domid with
  | Error err -> Error err
  | Ok r -> (
      match r.state with
      | (Created | Running) as state ->
          Error (Vm_bad_state { domid; state; op = "vm.resume" })
      | Paused -> (
          match Xen.unpause t.xen ~domid with
          | Ok () ->
              r.state <- (if r.awaited then Running else Created);
              Ok ()
          | Error e -> Error (hv_err ~domid ~op:"vm.resume" e)))

let vm_delete t ~domid =
  match lookup t ~domid with
  | Error err -> Error err
  | Ok r ->
      (* Destroy works from any state — a paused domain is torn down
         exactly like a running one (that is how pool shells die). *)
      Create.destroy (Toolstack.env t.ts) r.created;
      Hashtbl.remove t.vms domid;
      Ok ()

let vm_info t ~domid = Result.map info_of (lookup t ~domid)

let vm_counters t ~domid =
  Result.map
    (fun r ->
      {
        vc_create_s = r.created.Create.create_time;
        vc_boot_s = r.boot_s;
        vc_breakdown =
          List.map
            (fun c ->
              ( Create.category_name c,
                Create.breakdown_get r.created.Create.breakdown c ))
            Create.categories;
      })
    (lookup t ~domid)

let vm_list t =
  Hashtbl.fold (fun _ r acc -> r :: acc) t.vms []
  |> List.sort (fun a b ->
         Int.compare a.created.Create.domid b.created.Create.domid)
  |> List.map info_of

(* ------------------------------------------------------------------ *)
(* Snapshot, restore, migration *)

let vm_snapshot t ~domid =
  match lookup t ~domid with
  | Error e -> Error e
  | Ok r -> (
      match Checkpoint.save t.ts r.created with
      | Error reason -> Error (Vm_failed { op = "vm.snapshot"; reason })
      | Ok saved ->
          Hashtbl.remove t.vms domid;
          Ok saved)

let vm_restore t saved =
  match Checkpoint.restore t.ts saved with
  | Error reason -> Error (Vm_failed { op = "vm.restore"; reason })
  | Ok created -> Ok (info_of (register t created))

let vm_migrate ~src ~dst ~domid =
  match lookup src ~domid with
  | Error e -> Error e
  | Ok r -> (
      match Migrate.migrate ~src:src.ts ~dst:dst.ts r.created with
      | Ok (resumed, stats) ->
          Hashtbl.remove src.vms domid;
          Ok (info_of (register dst resumed), stats)
      | Error reason when Option.is_none (Xen.domain src.xen ~domid) ->
          (* Past the suspend: the source domain is gone and the guest
             with it. *)
          Hashtbl.remove src.vms domid;
          Error (Vm_migration_failed reason)
      | Error reason -> Error (Vm_failed { op = "vm.migrate"; reason }))

(* ------------------------------------------------------------------ *)
(* Resource accounting *)

type resources = {
  r_domains : int;  (* guest domains, shells included *)
  r_mem_kb : int;  (* frames allocated, all owners *)
  r_evtchns : int;  (* open event-channel endpoints *)
  r_grants : int;  (* outstanding grant-table entries *)
  r_ctrl_pages : int;  (* registered noxs control pages *)
  r_xs_nodes : int;  (* XenStore nodes *)
  r_xs_watches : int;  (* registered XenStore watches *)
}

let zero_resources =
  {
    r_domains = 0;
    r_mem_kb = 0;
    r_evtchns = 0;
    r_grants = 0;
    r_ctrl_pages = 0;
    r_xs_nodes = 0;
    r_xs_watches = 0;
  }

let add_resources a b =
  {
    r_domains = a.r_domains + b.r_domains;
    r_mem_kb = a.r_mem_kb + b.r_mem_kb;
    r_evtchns = a.r_evtchns + b.r_evtchns;
    r_grants = a.r_grants + b.r_grants;
    r_ctrl_pages = a.r_ctrl_pages + b.r_ctrl_pages;
    r_xs_nodes = a.r_xs_nodes + b.r_xs_nodes;
    r_xs_watches = a.r_xs_watches + b.r_xs_watches;
  }

let sub_resources a b =
  {
    r_domains = a.r_domains - b.r_domains;
    r_mem_kb = a.r_mem_kb - b.r_mem_kb;
    r_evtchns = a.r_evtchns - b.r_evtchns;
    r_grants = a.r_grants - b.r_grants;
    r_ctrl_pages = a.r_ctrl_pages - b.r_ctrl_pages;
    r_xs_nodes = a.r_xs_nodes - b.r_xs_nodes;
    r_xs_watches = a.r_xs_watches - b.r_xs_watches;
  }

let resources t =
  let env = Toolstack.env t.ts in
  {
    r_domains = Xen.guest_count t.xen;
    r_mem_kb = Xen.used_mem_kb t.xen;
    r_evtchns = Lightvm_hv.Evtchn.count (Xen.evtchn t.xen);
    r_grants = Lightvm_hv.Gnttab.count (Xen.gnttab t.xen);
    r_ctrl_pages = Lightvm_guest.Ctrl.count env.Create.ctrl;
    r_xs_nodes =
      Lightvm_xenstore.Xs_store.node_count
        (Lightvm_xenstore.Xs_server.store env.Create.xs_server);
    r_xs_watches = Lightvm_xenstore.Xs_server.watch_count env.Create.xs_server;
  }

let diff_resources ~before ~after =
  let d name get acc =
    let b = get before and a = get after in
    if a = b then acc
    else Printf.sprintf "%s %+d (%d -> %d)" name (a - b) b a :: acc
  in
  List.rev
    ([]
    |> d "domains" (fun r -> r.r_domains)
    |> d "mem_kb" (fun r -> r.r_mem_kb)
    |> d "evtchns" (fun r -> r.r_evtchns)
    |> d "grants" (fun r -> r.r_grants)
    |> d "ctrl_pages" (fun r -> r.r_ctrl_pages)
    |> d "xs_nodes" (fun r -> r.r_xs_nodes)
    |> d "xs_watches" (fun r -> r.r_xs_watches))

let check_leak t ~before =
  match diff_resources ~before ~after:(resources t) with
  | [] -> Ok ()
  | leaks -> Error (String.concat ", " leaks)
