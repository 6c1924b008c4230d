module Engine = Lightvm_sim.Engine
module Xen = Lightvm_hv.Xen
module Domain = Lightvm_hv.Domain

type registry =
  | Xenbus of Lightvm_xenstore.Xs_client.t
  | Noxs of Ctrl.t

type t = {
  xen : Xen.t;
  registry : registry;
  domid : int;
  image : Image.t;
  devices : Device.config list;
  ready : unit Engine.Ivar.t;
  started_at : float;
  mutable ready_at : float; (* meaningful once [ready] is full *)
  mutable up : bool;
}

let image t = t.image
let devices t = t.devices
let booted t = Engine.Ivar.is_full t.ready
let wait_ready t = Engine.Ivar.read t.ready

let boot_time t =
  if booted t then t.ready_at -. t.started_at
  else invalid_arg "Guest.boot_time: guest not booted yet"

(* Quiescing over the classic path means a XenStore control/shutdown
   handshake (watch + acknowledgement writes); under noxs the sysctl
   pseudo-device is a shared-page flip. *)
let suspend_work_xenbus = 2.5e-3
let suspend_work_noxs = 0.15e-3

(* Idle background load: Tinyx and Debian run periodic kernel/service
   work even when idle; unikernels do not (Image.idle_tick_period =
   infinity). *)
let rec idle_loop t =
  if t.up then begin
    let period = t.image.Image.idle_tick_period in
    if period <> infinity then begin
      Engine.sleep period;
      if t.up then begin
        (match Xen.find_domain t.xen ~domid:t.domid with
        | dom when Domain.is_running dom ->
            Xen.consume_guest t.xen ~domid:t.domid
              t.image.Image.idle_tick_work
        | _ | (exception Not_found) -> ());
        idle_loop t
      end
    end
  end

let rec connect_xenbus t xs = function
  | [] -> ()
  | dev :: rest ->
      Xenbus_front.connect ~xs ~xen:t.xen ~domid:t.domid dev;
      connect_xenbus t xs rest

let rec connect_noxs t ctrl = function
  | [] -> ()
  | dev :: rest ->
      Noxs_front.connect ~xen:t.xen ~ctrl ~domid:t.domid dev;
      connect_noxs t ctrl rest

let connect_devices t =
  match (t.registry, t.devices) with
  | Xenbus xs, devices -> connect_xenbus t xs devices
  | Noxs _, [] -> ()
  | Noxs ctrl, devices ->
      ignore (Noxs_front.map_device_page ~xen:t.xen ~domid:t.domid);
      connect_noxs t ctrl devices

let boot_process t () =
  Xen.consume_guest t.xen ~domid:t.domid t.image.Image.kernel_init_work;
  connect_devices t;
  Xen.consume_guest t.xen ~domid:t.domid t.image.Image.app_init_work;
  t.ready_at <- Engine.now ();
  t.up <- true;
  Engine.Ivar.fill t.ready ();
  idle_loop t

let start ~xen ~registry ~domid ~image ~devices () =
  let t =
    {
      xen;
      registry;
      domid;
      image;
      devices;
      ready = Engine.Ivar.create ();
      started_at = Engine.now ();
      ready_at = nan;
      up = false;
    }
  in
  Engine.spawn ~name:("guest-" ^ string_of_int domid) (boot_process t);
  t

let shutdown t =
  if t.up then begin
    t.up <- false;
    (* Guest-side quiesce: save internal state, unbind event channels
       and device pages. *)
    let work =
      match t.registry with
      | Xenbus _ -> suspend_work_xenbus
      | Noxs _ -> suspend_work_noxs
    in
    match Xen.find_domain t.xen ~domid:t.domid with
    | dom when Domain.is_running dom ->
        Xen.consume_guest t.xen ~domid:t.domid work
    | _ | (exception Not_found) -> ()
  end
