module Engine = Lightvm_sim.Engine

type state = Init | Front_ready | Connected | Closing | Closed

type page = {
  mac : string;
  mutable front_state : state;
  mutable back_state : state;
  mutable front_port : int option;
  connected : unit Engine.Ivar.t;
}

type t = { pages : (int * int, page) Hashtbl.t }

let create () = { pages = Hashtbl.create 32 }

let register t ~backend_domid ~grant_ref ~mac =
  let page =
    {
      mac;
      front_state = Init;
      back_state = Init;
      front_port = None;
      connected = Engine.Ivar.create ();
    }
  in
  Hashtbl.replace t.pages (backend_domid, grant_ref) page;
  page

let find t ~backend_domid ~grant_ref =
  Hashtbl.find_opt t.pages (backend_domid, grant_ref)

let unregister t ~backend_domid ~grant_ref =
  Hashtbl.remove t.pages (backend_domid, grant_ref)

let mac page = page.mac
let front_state page = page.front_state
let back_state page = page.back_state
let set_front_state page s = page.front_state <- s

let set_back_state page s =
  page.back_state <- s;
  if s = Connected && not (Engine.Ivar.is_full page.connected) then
    Engine.Ivar.fill page.connected ()

let set_front_port page port = page.front_port <- Some port
let front_port page = page.front_port

let await_connected page = Engine.Ivar.read page.connected

let count t = Hashtbl.length t.pages
