module Engine = Lightvm_sim.Engine
module Tbl = Hashtbl.Make (Int)

type state = Init | Front_ready | Connected | Closing | Closed

type page = {
  mac : string;
  mutable front_state : state;
  mutable back_state : state;
  mutable front_port : int; (* 0 until the frontend binds *)
  connected : unit Engine.Ivar.t;
}

type t = { pages : page Tbl.t }

let create () = { pages = Tbl.create 32 }

(* A page's table key: the backend domid above the 32 bits of the grant
   reference. *)
let[@inline] key backend_domid grant_ref =
  (backend_domid lsl 32) lor grant_ref

let register t ~backend_domid ~grant_ref ~mac =
  let page =
    {
      mac;
      front_state = Init;
      back_state = Init;
      front_port = 0;
      connected = Engine.Ivar.create ();
    }
  in
  Tbl.replace t.pages (key backend_domid grant_ref) page;
  page

let find t ~backend_domid ~grant_ref =
  Tbl.find t.pages (key backend_domid grant_ref)

let unregister t ~backend_domid ~grant_ref =
  Tbl.remove t.pages (key backend_domid grant_ref)

let mac page = page.mac
let front_state page = page.front_state
let back_state page = page.back_state
let set_front_state page s = page.front_state <- s

let set_back_state page s =
  page.back_state <- s;
  if s = Connected && not (Engine.Ivar.is_full page.connected) then
    Engine.Ivar.fill page.connected ()

let set_front_port page port = page.front_port <- port
let front_port page = page.front_port

let await_connected page = Engine.Ivar.read page.connected

let count t = Tbl.length t.pages
