module Xen = Lightvm_hv.Xen
module Devpage = Lightvm_hv.Devpage
module Evtchn = Lightvm_hv.Evtchn
module Gnttab = Lightvm_hv.Gnttab
module Params = Lightvm_hv.Params

exception Connect_failed of string

let map_device_page ~xen ~domid =
  let costs = Xen.costs xen in
  (* One hypercall to get the page address, one to map it. *)
  Xen.hypercall ~op:"devpage_op" xen ~cost:costs.Params.devpage_op;
  Xen.hypercall ~op:"devpage_op" xen ~cost:costs.Params.devpage_op;
  match Devpage.read (Xen.devpage xen) ~caller:domid ~domid with
  | Ok entries -> entries
  | Error _ -> raise (Connect_failed "no device page")

let find_entry ~xen ~domid (dev : Device.config) =
  match
    Devpage.find (Xen.devpage xen) ~caller:domid ~domid
      ~kind:(Device.devpage_kind dev.Device.kind)
      ~devid:dev.Device.devid
  with
  | Ok entry -> entry
  | Error _ ->
      raise
        (Connect_failed
           (Printf.sprintf "no device page entry for %s%d"
              (Device.kind_to_string dev.Device.kind)
              dev.Device.devid))

(* Guest-side CPU for noxs bring-up: a handful of hypercalls and shared
   memory pokes — more than an order of magnitude less guest work than
   the xenbus dance. *)
let guest_side_work = 0.06e-3

let connect ~xen ~ctrl ~domid (dev : Device.config) =
  Xen.consume_guest xen ~domid guest_side_work;
  let costs = Xen.costs xen in
  let entry = find_entry ~xen ~domid dev in
  (* Map the device control page shared by the backend. *)
  Xen.hypercall ~op:"gnttab_op" xen ~cost:costs.Params.gnttab_op;
  (match
     Gnttab.map (Xen.gnttab xen) ~grantee:domid
       ~owner:entry.Devpage.backend_domid entry.Devpage.grant_ref
   with
  | Ok _frame -> ()
  | Error _ -> raise (Connect_failed "control page grant map failed"));
  let page =
    match
      Ctrl.find ctrl ~backend_domid:entry.Devpage.backend_domid
        ~grant_ref:entry.Devpage.grant_ref
    with
    | page -> page
    | exception Not_found -> raise (Connect_failed "no control page registered")
  in
  (* Bind to the backend's event channel. *)
  Xen.hypercall ~op:"evtchn_op" xen ~cost:costs.Params.evtchn_op;
  let port =
    match
      Evtchn.bind_interdomain (Xen.evtchn xen) ~domid
        ~remote:entry.Devpage.backend_domid
        ~remote_port:entry.Devpage.evtchn_port
    with
    | Ok port -> port
    | Error _ -> raise (Connect_failed "event channel bind failed")
  in
  (* Exchange setup info through the control page and kick the
     backend. *)
  Ctrl.set_front_port page port;
  Ctrl.set_front_state page Ctrl.Front_ready;
  ignore (Evtchn.notify (Xen.evtchn xen) ~domid ~port);
  Ctrl.await_connected page;
  Ctrl.set_front_state page Ctrl.Connected
