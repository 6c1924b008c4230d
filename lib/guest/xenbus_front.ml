module Engine = Lightvm_sim.Engine
module Xs_client = Lightvm_xenstore.Xs_client
module Xs_path = Lightvm_xenstore.Xs_path
module Xs_watch = Lightvm_xenstore.Xs_watch
module Xen = Lightvm_hv.Xen
module Evtchn = Lightvm_hv.Evtchn
module Gnttab = Lightvm_hv.Gnttab
module Params = Lightvm_hv.Params

type xenbus_state =
  | Initialising
  | Init_wait
  | Initialised
  | Connected
  | Closing
  | Closed

let state_to_wire = function
  | Initialising -> "1"
  | Init_wait -> "2"
  | Initialised -> "3"
  | Connected -> "4"
  | Closing -> "5"
  | Closed -> "6"

let state_of_wire = function
  | "1" -> Some Initialising
  | "2" -> Some Init_wait
  | "3" -> Some Initialised
  | "4" -> Some Connected
  | "5" -> Some Closing
  | "6" -> Some Closed
  | _ -> None

exception Connect_failed of string

(* Guest-side CPU for the whole xenbus dance: interrupt handling and
   the xenbus state machine for ~10 store round-trips. Under core
   contention this work stretches with the scheduling share, which is
   exactly what backs up the paper's overloaded-host experiment
   (Fig 17): a booting guest on a crowded core takes far longer to get
   through its XenStore handshake. *)
let guest_side_work = 3.2e-3

let connect ~xs ~xen ~domid (dev : Device.config) =
  Xen.consume_guest xen ~domid (0.5 *. guest_side_work);
  let fe = Device.frontend_dir ~domid dev in
  let be = Device.backend_dir ~domid dev in
  (* 1. Discover the backend from our frontend directory. *)
  let backend_path = Xs_client.read xs (Xs_path.concat fe "backend") in
  if backend_path <> Xs_path.to_string be then
    raise
      (Connect_failed
         (Printf.sprintf "backend path mismatch: %s vs %s" backend_path
            (Xs_path.to_string be)));
  let backend_id =
    int_of_string (Xs_client.read xs (Xs_path.concat fe "backend-id"))
  in
  (* 2. Allocate the shared ring and event channel. *)
  let costs = Xen.costs xen in
  let gnt = Xen.gnttab xen in
  let ring_gref =
    Xen.hypercall ~op:"gnttab_op" xen ~cost:costs.Params.gnttab_op;
    Gnttab.grant_access gnt ~owner:domid ~grantee:backend_id ~frame:0
  in
  let port =
    Xen.hypercall ~op:"evtchn_op" xen ~cost:costs.Params.evtchn_op;
    Evtchn.alloc_unbound (Xen.evtchn xen) ~domid ~remote:backend_id
  in
  (* 3. Publish them and flip to Initialised. *)
  let fe_state = Xs_path.concat fe "state" in
  Xs_client.write_many xs
    [
      (Xs_path.concat fe "ring-ref", string_of_int ring_gref);
      (Xs_path.concat fe "event-channel", string_of_int port);
      (fe_state, state_to_wire Initialised);
    ];
  (* 4. Wait for the backend to connect (watch on its state node). *)
  let connected = Engine.Ivar.create () in
  let state_path = Xs_path.concat be "state" in
  let token =
    String.concat "-"
      [ "fe"; string_of_int domid; Device.kind_to_string dev.Device.kind;
        string_of_int dev.Device.devid ]
  in
  Xs_client.watch xs ~path:state_path ~token ~deliver:(fun _event ->
      match Xs_client.read_opt xs state_path with
      | Some wire when state_of_wire wire = Some Connected ->
          if not (Engine.Ivar.is_full connected) then
            Engine.Ivar.fill connected ()
      | Some _ | None -> ());
  Engine.Ivar.read connected;
  Xs_client.unwatch xs ~path:state_path ~token;
  (* 5. Read back what the backend published and go Connected. *)
  ignore (Xs_client.read_opt xs (Xs_path.concat be "mac"));
  Xs_client.write xs fe_state (state_to_wire Connected);
  Xen.consume_guest xen ~domid (0.5 *. guest_side_work)
