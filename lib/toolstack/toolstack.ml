module Xen = Lightvm_hv.Xen
module Xs_server = Lightvm_xenstore.Xs_server
module Xs_client = Lightvm_xenstore.Xs_client
module Ctrl = Lightvm_guest.Ctrl
module Engine = Lightvm_sim.Engine

(* A warm pool serves one flavour: the shape a shell is prepared with. *)
type flavor = { mem_mb : float; vcpus : int; nics : int; disks : int }

type t = {
  env : Create.env;
  pool_target : int;
  pools : (flavor, Create.shell Pool.t) Hashtbl.t;
}

let make ~xen ~mode ?xs_profile ?(costs = Costs.default)
    ?(pool_target = 8) () =
  let xs_server =
    match xs_profile with
    | Some profile -> Xs_server.create ~profile ()
    | None -> Xs_server.create ()
  in
  let xs = Xs_client.connect xs_server ~domid:0 in
  let ctrl = Ctrl.create () in
  let backend =
    Backend.create ~xen
      ~xs:(if mode.Mode.registry = Mode.Xenstore then Some xs else None)
      ~ctrl ~costs
  in
  let env =
    { Create.xen; xs_server; xs; ctrl; backend; mode; costs;
      shells = ref 0 }
  in
  { env; pool_target; pools = Hashtbl.create 8 }

let env t = t.env
let xen t = t.env.Create.xen
let mode t = t.env.Create.mode
let costs t = t.env.Create.costs
let xs_server t = t.env.Create.xs_server

let flavor_of_config t (cfg : Vmconfig.t) =
  {
    mem_mb = Create.effective_mem_mb t.env cfg;
    vcpus = cfg.Vmconfig.vcpus;
    nics = List.length cfg.Vmconfig.vifs;
    disks = List.length cfg.Vmconfig.disks;
  }

let pool_for t (cfg : Vmconfig.t) =
  let key = flavor_of_config t cfg in
  match Hashtbl.find_opt t.pools key with
  | Some pool -> pool
  | None ->
      let { mem_mb; vcpus; nics; disks } = key in
      let pool =
        Pool.create ~target:t.pool_target ~make:(fun () ->
            Create.prepare t.env ~mem_mb ~vcpus ~nics ~disks ())
      in
      Hashtbl.replace t.pools key pool;
      pool

let create_vm t ?config_text ?image_override cfg =
  match
    if (mode t).Mode.split then begin
      let t0 = Engine.now () in
      let b = Create.breakdown_create () in
      let shell = Pool.take (pool_for t cfg) in
      let created =
        Create.execute t.env shell ?config_text ?image_override cfg
          ~breakdown:b ()
      in
      { created with Create.create_time = Engine.now () -. t0 }
    end
    else Create.create t.env ?config_text ?image_override cfg
  with
  | created -> Ok created
  | exception Create.Create_failed msg -> Error msg
  | exception Lightvm_xenstore.Xs_error.Error e ->
      Error (Lightvm_xenstore.Xs_error.to_string e)

let create_vm_exn t ?config_text ?image_override cfg =
  match create_vm t ?config_text ?image_override cfg with
  | Ok created -> created
  | Error msg -> raise (Create.Create_failed msg)

let destroy_vm t created = Create.destroy t.env created

let prefill_pool t cfg =
  if (mode t).Mode.split then Pool.prefill (pool_for t cfg)

let pool_target t cfg =
  if (mode t).Mode.split then Pool.target (pool_for t cfg) else 0

(* Scale the flavor's pool: raising the target leaves refilling to the
   next take (or an explicit [prefill_pool]); lowering it retires the
   surplus shells immediately through the full prepare-inverse, so no
   domain, frame or store node outlives the scale-down. *)
let set_pool_target t cfg target =
  if (mode t).Mode.split then begin
    let pool = pool_for t cfg in
    Pool.set_target pool target;
    let rec drain () =
      match Pool.take_surplus pool with
      | None -> ()
      | Some shell ->
          Create.discard_shell t.env shell;
          drain ()
    in
    drain ()
  end

let pool_stats t cfg =
  if (mode t).Mode.split then
    let pool = pool_for t cfg in
    (Pool.hits pool, Pool.takes pool)
  else (0, 0)

let shell_count t =
  Hashtbl.fold (fun _ pool acc -> acc + Pool.size pool) t.pools 0
