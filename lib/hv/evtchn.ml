module Engine = Lightvm_sim.Engine
module Tbl = Hashtbl.Make (Int)

type port = int

type error = Invalid_port | Wrong_domain | Already_bound | Not_bound

(* One open port. [remote] is the domain named when the port was made:
   the peer an unbound port waits for, or the domain of the port it was
   bound to. It never changes, since a bound port whose peer closes waits
   for the peer's domain again, so every port that names a domain sits in
   that domain's ring ([prev]/[next]) from its creation to its close. *)
type chan = {
  domid : int;
  port : port;
  remote : int;
  mutable peer : chan; (* the bound peer; the table's [nil] while unbound *)
  mutable handler : unit -> unit; (* the table's [no_handler] when unset *)
  mutable prev : chan;
  mutable next : chan;
}

(* Per domain: the next port number (ports are never reused until
   {!close_all} forgets the domain), how many of its ports are open, and
   the head of the ring of ports, its own or others', that name it. A
   domain with none of these has no record. *)
type dom = {
  mutable next_port : int;
  mutable open_ports : int;
  mutable ring : chan;
}

(* [nil] and [no_handler] belong to the table rather than the module, so
   a frozen and thawed table compares against its own copies. *)
type t = {
  chans : chan Tbl.t;
  doms : dom Tbl.t;
  nil : chan;
  no_handler : unit -> unit;
}

let create () =
  let no_handler () = () in
  let rec nil =
    { domid = -1; port = 0; remote = -1; peer = nil; handler = no_handler;
      prev = nil; next = nil }
  in
  { chans = Tbl.create 64; doms = Tbl.create 16; nil; no_handler }

(* A port's table key: the domid above the 32 bits of the port number. *)
let[@inline] key domid port = (domid lsl 32) lor port

let dom t domid =
  match Tbl.find t.doms domid with
  | d -> d
  | exception Not_found ->
      let d = { next_port = 1; open_ports = 0; ring = t.nil } in
      Tbl.replace t.doms domid d;
      d

(* Forget a domain that holds nothing: its port numbering restarts. *)
let forget_if_idle t domid d =
  if d.next_port = 1 && d.open_ports = 0 && d.ring == t.nil then
    Tbl.remove t.doms domid

let open_port t ~domid ~remote ~peer =
  let d = dom t domid in
  let port = d.next_port in
  d.next_port <- port + 1;
  d.open_ports <- d.open_ports + 1;
  let r = dom t remote in
  let chan =
    { domid; port; remote; peer; handler = t.no_handler; prev = t.nil;
      next = r.ring }
  in
  if r.ring != t.nil then r.ring.prev <- chan;
  r.ring <- chan;
  Tbl.replace t.chans (key domid port) chan;
  chan

let alloc_unbound t ~domid ~remote =
  (open_port t ~domid ~remote ~peer:t.nil).port

let bind_interdomain t ~domid ~remote ~remote_port =
  match Tbl.find t.chans (key remote remote_port) with
  | exception Not_found -> Error Invalid_port
  | peer ->
      if peer.peer != t.nil then Error Already_bound
      else if peer.remote <> domid then Error Wrong_domain
      else begin
        let chan = open_port t ~domid ~remote ~peer in
        peer.peer <- chan;
        Ok chan.port
      end

let set_handler t ~domid ~port f =
  match Tbl.find t.chans (key domid port) with
  | exception Not_found -> invalid_arg "Evtchn.set_handler: no such port"
  | chan -> chan.handler <- f

let notify t ~domid ~port =
  match Tbl.find t.chans (key domid port) with
  | exception Not_found -> Error Invalid_port
  | chan ->
      let peer = chan.peer in
      if peer == t.nil then Error Not_bound
      else begin
        (* An unset handler loses the event, like a masked interrupt. *)
        if peer.handler != t.no_handler then
          Engine.spawn ~name:"evtchn-handler" peer.handler;
        Ok ()
      end

let close_chan t chan =
  let peer = chan.peer in
  if peer != t.nil then peer.peer <- t.nil;
  let r = Tbl.find t.doms chan.remote in
  if chan.prev == t.nil then r.ring <- chan.next
  else chan.prev.next <- chan.next;
  if chan.next != t.nil then chan.next.prev <- chan.prev;
  Tbl.remove t.chans (key chan.domid chan.port);
  let d = Tbl.find t.doms chan.domid in
  d.open_ports <- d.open_ports - 1;
  forget_if_idle t chan.remote r;
  if chan.remote <> chan.domid then forget_if_idle t chan.domid d

let close t ~domid ~port =
  match Tbl.find t.chans (key domid port) with
  | exception Not_found -> Error Invalid_port
  | chan ->
      close_chan t chan;
      Ok ()

let ports_of t ~domid =
  match Tbl.find t.doms domid with
  | exception Not_found -> []
  | d ->
      let ports = ref [] in
      for port = d.next_port - 1 downto 1 do
        if Tbl.mem t.chans (key domid port) then ports := port :: !ports
      done;
      !ports

(* Domids are never reused, so a destroyed domain's port numbering is
   dead state: without forgetting it the table would gain one record per
   VM ever created, and a host churning millions of serverless
   lifecycles would drag an ever-growing live set through every major
   GC cycle. *)
let close_all t ~domid =
  match Tbl.find t.doms domid with
  | exception Not_found -> 0
  | d ->
      let closed = ref 0 in
      for port = 1 to d.next_port - 1 do
        match Tbl.find t.chans (key domid port) with
        | exception Not_found -> ()
        | chan ->
            close_chan t chan;
            incr closed
      done;
      d.next_port <- 1;
      forget_if_idle t domid d;
      !closed

(* The ports naming [domid] are its ring (after {!close_all}, only other
   domains' ports are left in it). Closing one unlinks only that port, so
   the walk saves the successor first. *)
let close_peers_of t ~domid =
  match Tbl.find t.doms domid with
  | exception Not_found -> 0
  | d ->
      let closed = ref 0 in
      let chan = ref d.ring in
      while !chan != t.nil do
        let c = !chan in
        chan := c.next;
        close_chan t c;
        incr closed
      done;
      !closed

(* Open endpoints across all domains, for leak accounting. *)
let count t = Tbl.length t.chans
