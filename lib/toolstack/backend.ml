module Engine = Lightvm_sim.Engine
module Fault = Lightvm_sim.Fault
module Xen = Lightvm_hv.Xen
module Evtchn = Lightvm_hv.Evtchn
module Gnttab = Lightvm_hv.Gnttab
module Params = Lightvm_hv.Params
module Xs_client = Lightvm_xenstore.Xs_client
module Xs_path = Lightvm_xenstore.Xs_path
module Xs_error = Lightvm_xenstore.Xs_error
module Device = Lightvm_guest.Device
module Ctrl = Lightvm_guest.Ctrl
module Xenbus_front = Lightvm_guest.Xenbus_front
module Trace = Lightvm_trace.Trace

type t = {
  xen : Xen.t;
  xs : Xs_client.t option;
  ctrl : Ctrl.t;
  costs : Costs.t;
  mutable mac_counter : int;
  mutable next_ctrl_frame : int;
}

exception Alloc_failed of string

let create ~xen ~xs ~ctrl ~costs =
  { xen; xs; ctrl; costs; mac_counter = 0; next_ctrl_frame = 0x1000 }


(* Write [byte] as two lowercase hex digits at [pos]. *)
let put_hex b pos byte =
  Bytes.set b pos "0123456789abcdef".[byte lsr 4];
  Bytes.set b (pos + 1) "0123456789abcdef".[byte land 0xf]

(* The low 24 bits of the counter, after the Xen prefix. *)
let fresh_mac t =
  t.mac_counter <- t.mac_counter + 1;
  let n = t.mac_counter in
  let b = Bytes.of_string "00:16:3e:00:00:00" in
  put_hex b 9 ((n lsr 16) land 0xff);
  put_hex b 12 ((n lsr 8) land 0xff);
  put_hex b 15 (n land 0xff);
  Bytes.unsafe_to_string b

let watch_token ~domid (dev : Device.config) =
  String.concat "-"
    [ "be"; string_of_int domid; Device.kind_to_string dev.Device.kind;
      string_of_int dev.Device.devid ]

(* ------------------------------------------------------------------ *)
(* XenStore path *)

let complete_handshake t ~domid (dev : Device.config) xs =
  (* Runs on a watch event: the frontend has published its half. *)
  let fe = Device.frontend_dir ~domid dev in
  let be_state = Xs_path.concat (Device.backend_dir ~domid dev) "state" in
  match Xs_client.read_opt xs be_state with
  | Some s
    when Xenbus_front.state_of_wire s = Some Xenbus_front.Connected ->
      () (* already connected; spurious event *)
  | Some _ | None -> (
      match
        ( Xs_client.read_opt xs (Xs_path.concat fe "ring-ref"),
          Xs_client.read_opt xs (Xs_path.concat fe "event-channel") )
      with
      | Some gref, Some port ->
          let costs = Xen.costs t.xen in
          (* Map the ring and bind the channel. *)
          Xen.hypercall ~op:"gnttab_op" t.xen ~cost:costs.Params.gnttab_op;
          ignore
            (Gnttab.map (Xen.gnttab t.xen) ~grantee:dev.Device.backend_domid
               ~owner:domid (int_of_string gref));
          Xen.hypercall ~op:"evtchn_op" t.xen ~cost:costs.Params.evtchn_op;
          ignore
            (Evtchn.bind_interdomain (Xen.evtchn t.xen)
               ~domid:dev.Device.backend_domid ~remote:domid
               ~remote_port:(int_of_string port));
          (* Backend-side driver work on a Dom0 core. *)
          Xen.consume_dom0 t.xen t.costs.Costs.backend_connect_work;
          (* The daemon degrades gracefully under store pressure: a
             quota rejection (natural or injected, see lib/sim/fault.ml)
             is retried after a backoff rather than wedging the device —
             a frontend blocked on this write would otherwise never see
             Connected. Unbounded on purpose: real netback loops until
             the store accepts, and any fault probability < 1 terminates. *)
          let rec publish_connected attempt =
            try
              Xs_client.write xs be_state
                (Xenbus_front.state_to_wire Xenbus_front.Connected)
            with Xs_error.Error Xs_error.EQUOTA ->
              Trace.charge ~category:"devices.requeue"
                (t.costs.Costs.xendevd_requeue_delay
                *. float_of_int (1 lsl Stdlib.min attempt 6));
              publish_connected (attempt + 1)
          in
          publish_connected 0
      | _ -> () (* frontend not ready yet; wait for the next event *))

let watch_device t ~domid (dev : Device.config) =
  match t.xs with
  | None -> invalid_arg "Backend.watch_device: no XenStore connection"
  | Some xs ->
      let fe_state =
        Xs_path.concat (Device.frontend_dir ~domid dev) "state"
      in
      let token = watch_token ~domid dev in
      (* The watch stays registered for the device's lifetime (the real
         netback keeps watching for Closing) — the registry grows with
         the number of running guests. *)
      Xs_client.watch xs ~path:fe_state ~token
        ~deliver:(fun _event ->
          match Xs_client.read_opt xs fe_state with
          | Some s
            when Xenbus_front.state_of_wire s
                 = Some Xenbus_front.Initialised ->
              complete_handshake t ~domid dev xs
          | Some _ | None -> ())

(* ------------------------------------------------------------------ *)
(* noxs path *)

let gnttab_point = Fault.point "gnttab.alloc"

let evtchn_point = Fault.point "evtchn.alloc"

let precreate_device t ~domid (dev : Device.config) =
  (* The ioctl into the noxs kernel module plus backend-side setup. *)
  Xen.consume_dom0 t.xen t.costs.Costs.backend_ioctl;
  let costs = Xen.costs t.xen in
  (* Allocate the device control page and grant it to the guest. *)
  t.next_ctrl_frame <- t.next_ctrl_frame + 1;
  Xen.hypercall ~op:"gnttab_op" t.xen ~cost:costs.Params.gnttab_op;
  (* Fault point: the hypercall did its work but the backend's grant
     table is full. Nothing allocated yet, so nothing to undo. *)
  if Fault.fire gnttab_point then
    raise (Alloc_failed "grant table full pre-creating device");
  let gref =
    Gnttab.grant_access (Xen.gnttab t.xen)
      ~owner:dev.Device.backend_domid ~grantee:domid
      ~frame:t.next_ctrl_frame
  in
  let page =
    Ctrl.register t.ctrl ~backend_domid:dev.Device.backend_domid
      ~grant_ref:gref ~mac:(fresh_mac t)
  in
  (* Unbound event channel for the frontend to bind. *)
  Xen.hypercall ~op:"evtchn_op" t.xen ~cost:costs.Params.evtchn_op;
  (* Fault point: out of event channels. The grant and control page
     were already allocated — release them before reporting, so a
     failed pre-creation never leaks Dom0-owned resources (Xen.destroy
     of the guest would not reclaim them). *)
  if Fault.fire evtchn_point then begin
    Ctrl.unregister t.ctrl ~backend_domid:dev.Device.backend_domid
      ~grant_ref:gref;
    ignore (Gnttab.end_access (Xen.gnttab t.xen) ~owner:dev.Device.backend_domid gref);
    raise (Alloc_failed "out of event channels pre-creating device")
  end;
  let port =
    Evtchn.alloc_unbound (Xen.evtchn t.xen)
      ~domid:dev.Device.backend_domid ~remote:domid
  in
  (* When the guest kicks, finish the handshake over shared memory. *)
  Evtchn.set_handler (Xen.evtchn t.xen) ~domid:dev.Device.backend_domid
    ~port (fun () ->
      if Ctrl.front_state page = Ctrl.Front_ready
         && Ctrl.back_state page <> Ctrl.Connected
      then begin
        Xen.consume_dom0 t.xen t.costs.Costs.backend_connect_work;
        Ctrl.set_back_state page Ctrl.Connected;
        let fport = Ctrl.front_port page in
        if fport <> 0 then
          ignore (Evtchn.notify (Xen.evtchn t.xen) ~domid ~port:fport)
      end);
  (gref, port)

let destroy_device t ~domid (dev : Device.config) ~grant_ref =
  ignore domid;
  (* Not yet optimized in the noxs prototype (Section 6.2). *)
  Xen.consume_dom0 t.xen t.costs.Costs.noxs_device_destroy;
  Ctrl.unregister t.ctrl ~backend_domid:dev.Device.backend_domid
    ~grant_ref

let abort_precreated t ~domid (dev : Device.config) ~grant_ref ~port =
  ignore domid;
  (* Tearing down a pre-created device whose guest never booted. All
     three resources are owned by the backend domain, so destroying the
     guest would not release them — this is the cleanup the creation
     rollback runs. Same (unoptimized) cost as a live-device destroy. *)
  Xen.consume_dom0 t.xen t.costs.Costs.noxs_device_destroy;
  ignore
    (Evtchn.close (Xen.evtchn t.xen) ~domid:dev.Device.backend_domid ~port);
  Ctrl.unregister t.ctrl ~backend_domid:dev.Device.backend_domid ~grant_ref;
  ignore
    (Gnttab.end_access (Xen.gnttab t.xen) ~owner:dev.Device.backend_domid
       grant_ref)
