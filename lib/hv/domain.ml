type shutdown_reason = Poweroff | Reboot | Suspend | Crash

type state =
  | Paused
  | Running
  | Shutdown of shutdown_reason
  | Dying

type t = {
  domid : int;
  mutable name : string;
  mutable state : state;
  vcpus : int;
  mutable max_mem_kb : int;
  mutable core : int;
  mutable shell : bool;
  created_at : float;
}

let make ~domid ~name ~vcpus ~max_mem_kb ~core =
  {
    domid;
    name;
    state = Paused;
    vcpus;
    max_mem_kb;
    core;
    shell = false;
    created_at =
      (if Lightvm_sim.Engine.running () then Lightvm_sim.Engine.now ()
       else 0.);
  }

let domid t = t.domid
let name t = t.name
let set_name t name = t.name <- name
let state t = t.state
let set_state t s = t.state <- s
let vcpus t = t.vcpus
let max_mem_kb t = t.max_mem_kb
let core t = t.core
let set_shell t b = t.shell <- b
let is_running t = t.state = Running
