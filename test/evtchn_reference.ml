(* The table of [(domid, port)] keys that [Lightvm_hv.Evtchn]'s
   per-domain index replaced, kept as the reference model for
   [test_hv.ml]'s "per-domain index = reference tables" property. Below
   this comment it is the replaced [lib/hv/evtchn.ml] verbatim: every
   port is one entry of a table keyed by [(domid, port)], and a domain's
   teardown folds and sorts the whole table. *)

module Engine = Lightvm_sim.Engine

type port = int

type error = Invalid_port | Wrong_domain | Already_bound | Not_bound

type endpoint = { domid : int; port : port }

type state =
  | Unbound of { expected_remote : int }
  | Bound of endpoint (* the peer endpoint *)
  | Closed

type chan = {
  mutable state : state;
  mutable handler : (unit -> unit) option;
}

type t = {
  (* (domid, port) -> channel endpoint *)
  table : (int * int, chan) Hashtbl.t;
  next_port : (int, int) Hashtbl.t;
}

let create () = { table = Hashtbl.create 64; next_port = Hashtbl.create 16 }

let fresh_port t domid =
  let n = Option.value ~default:1 (Hashtbl.find_opt t.next_port domid) in
  Hashtbl.replace t.next_port domid (n + 1);
  n

let alloc_unbound t ~domid ~remote =
  let port = fresh_port t domid in
  Hashtbl.replace t.table (domid, port)
    { state = Unbound { expected_remote = remote }; handler = None };
  port

let bind_interdomain t ~domid ~remote ~remote_port =
  match Hashtbl.find_opt t.table (remote, remote_port) with
  | None -> Error Invalid_port
  | Some peer -> (
      match peer.state with
      | Bound _ -> Error Already_bound
      | Closed -> Error Invalid_port
      | Unbound { expected_remote } ->
          if expected_remote <> domid then Error Wrong_domain
          else begin
            let port = fresh_port t domid in
            let local =
              {
                state = Bound { domid = remote; port = remote_port };
                handler = None;
              }
            in
            Hashtbl.replace t.table (domid, port) local;
            peer.state <- Bound { domid; port };
            Ok port
          end)

let set_handler t ~domid ~port f =
  match Hashtbl.find_opt t.table (domid, port) with
  | None -> invalid_arg "Evtchn.set_handler: no such port"
  | Some chan -> chan.handler <- Some f

let notify t ~domid ~port =
  match Hashtbl.find_opt t.table (domid, port) with
  | None -> Error Invalid_port
  | Some chan -> (
      match chan.state with
      | Unbound _ -> Error Not_bound
      | Closed -> Error Invalid_port
      | Bound peer -> (
          match Hashtbl.find_opt t.table (peer.domid, peer.port) with
          | None -> Error Invalid_port
          | Some peer_chan ->
              (match peer_chan.handler with
              | Some handler ->
                  Engine.spawn ~name:"evtchn-handler" handler
              | None -> () (* lost, like a masked interrupt *));
              Ok ()))

let close t ~domid ~port =
  match Hashtbl.find_opt t.table (domid, port) with
  | None -> Error Invalid_port
  | Some chan ->
      (match chan.state with
      | Bound peer -> (
          match Hashtbl.find_opt t.table (peer.domid, peer.port) with
          | Some peer_chan -> peer_chan.state <- Unbound { expected_remote = domid }
          | None -> ())
      | Unbound _ | Closed -> ());
      chan.state <- Closed;
      chan.handler <- None;
      Hashtbl.remove t.table (domid, port);
      Ok ()

let ports_of t ~domid =
  List.sort compare
    (Hashtbl.fold
       (fun (d, p) _ acc -> if d = domid then p :: acc else acc)
       t.table [])

let close_all t ~domid =
  let ports = ports_of t ~domid in
  List.iter (fun port -> ignore (close t ~domid ~port)) ports;
  (* Domids are never reused, so a destroyed domain's port counter is
     dead state: without this removal the counter table gains one
     entry per VM ever created, and a host churning millions of
     serverless lifecycles drags an ever-growing live set through
     every major GC cycle. *)
  Hashtbl.remove t.next_port domid;
  List.length ports

let close_peers_of t ~domid =
  let stale =
    Hashtbl.fold
      (fun (d, p) chan acc ->
        match chan.state with
        | Unbound { expected_remote } when expected_remote = domid ->
            (d, p) :: acc
        | Bound peer when peer.domid = domid -> (d, p) :: acc
        | Unbound _ | Bound _ | Closed -> acc)
      t.table []
  in
  List.iter
    (fun (d, p) -> ignore (close t ~domid:d ~port:p))
    (List.sort compare stale);
  List.length stale

(* Open endpoints across all domains, for leak accounting. *)
let count t = Hashtbl.length t.table
