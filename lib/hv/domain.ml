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
  max_mem_kb : int;
  core : int;
}

let make ~domid ~name ~max_mem_kb ~core =
  { domid; name; state = Paused; max_mem_kb; core }

let domid t = t.domid
let name t = t.name
let set_name t name = t.name <- name
let state t = t.state
let set_state t s = t.state <- s
let max_mem_kb t = t.max_mem_kb
let core t = t.core
let is_running t = t.state = Running
