module Engine = Lightvm_sim.Engine
module Ports = Set.Make (Int)

type t = {
  capacity_pps : float;
  handlers : (int, Packet.t -> unit) Hashtbl.t;
  mutable attached : Ports.t; (* floods go in port order *)
  partitions : (int, int) Hashtbl.t; (* port -> partition, when declared *)
  fdb : (int, int) Hashtbl.t; (* mac -> port (identical here) *)
  mutable tokens : float;
  mutable last_refill : float;
  mutable forwarded : int;
  mutable dropped : int;
  mutable dropped_broadcast : int;
}

let default_latency = 30.0e-6
let queue_slots = 2048

let create ?(capacity_pps = 300_000.) () =
  {
    capacity_pps;
    handlers = Hashtbl.create 64;
    attached = Ports.empty;
    partitions = Hashtbl.create 64;
    fdb = Hashtbl.create 64;
    tokens = float_of_int queue_slots;
    last_refill = 0.;
    forwarded = 0;
    dropped = 0;
    dropped_broadcast = 0;
  }

let attach ?partition t ~port ~handler =
  Hashtbl.replace t.handlers port handler;
  t.attached <- Ports.add port t.attached;
  match partition with
  | Some p -> Hashtbl.replace t.partitions port p
  | None -> Hashtbl.remove t.partitions port

let detach t ~port =
  Hashtbl.remove t.handlers port;
  t.attached <- Ports.remove port t.attached;
  Hashtbl.remove t.partitions port;
  Hashtbl.remove t.fdb port

let refill t =
  let now = Engine.now () in
  let elapsed = now -. t.last_refill in
  if elapsed > 0. then begin
    t.tokens <-
      Float.min
        (float_of_int queue_slots)
        (t.tokens +. (elapsed *. t.capacity_pps));
    t.last_refill <- now
  end

(* Delivery is the partition boundary of a partitioned run: a port
   attached with a partition id receives its packets via [Engine.post],
   so the handler runs inside the port's own partition. The forwarding
   latency is exactly the conservative-sync lookahead (see
   DESIGN.md "Parallel simulation"), which is what makes every
   cross-partition post legal. Timing is identical in both modes: the
   handler process starts [default_latency] after the send. *)
let deliver t port pkt =
  match Hashtbl.find_opt t.handlers port with
  | None -> ()
  | Some handler ->
      let start () =
        Engine.spawn ~name:"switch-delivery" (fun () -> handler pkt)
      in
      (match Hashtbl.find_opt t.partitions port with
      | Some p when p <> Engine.current_partition () ->
          Engine.post ~partition:p ~delay:default_latency start
      | Some _ | None -> ignore (Engine.after default_latency start))

let flood t (pkt : Packet.t) =
  Ports.iter
    (fun port -> if port <> pkt.Packet.src then deliver t port pkt)
    t.attached

let send t (pkt : Packet.t) =
  refill t;
  (* Learn the source. *)
  Hashtbl.replace t.fdb pkt.Packet.src pkt.Packet.src;
  (* Under overload, broadcasts are the first casualties: they fan out
     to every port, so the bridge sheds them as soon as the bucket runs
     low, while unicasts only drop when it is fully empty. *)
  let cost, is_bcast =
    match pkt.Packet.dst with
    | Packet.Broadcast ->
        (float_of_int (max 1 (Hashtbl.length t.handlers - 1)), true)
    | Packet.Addr _ -> (1., false)
  in
  let threshold =
    if is_bcast then 0.25 *. float_of_int queue_slots else 0.
  in
  if t.tokens -. cost < threshold then begin
    t.dropped <- t.dropped + 1;
    if is_bcast then t.dropped_broadcast <- t.dropped_broadcast + 1
  end
  else begin
    t.tokens <- t.tokens -. cost;
    t.forwarded <- t.forwarded + 1;
    match pkt.Packet.dst with
    | Packet.Broadcast -> flood t pkt
    | Packet.Addr dst -> (
        match Hashtbl.find_opt t.fdb dst with
        | Some port -> deliver t port pkt
        | None -> (* Unknown unicast: flood. *) flood t pkt)
  end

let learned t = Hashtbl.length t.fdb
let forwarded t = t.forwarded
let dropped t = t.dropped
let dropped_broadcast t = t.dropped_broadcast
