type t = {
  cap : int;
  mutable avail : int;
  waiters : (unit -> unit) Queue.t;
}

let create capacity =
  if capacity < 1 then invalid_arg "Sim.Resource.create: capacity < 1";
  { cap = capacity; avail = capacity; waiters = Queue.create () }

let available t = t.avail

let acquire t =
  if t.avail > 0 then t.avail <- t.avail - 1
  else Engine.suspend (fun resume -> Queue.add resume t.waiters)

let release t =
  match Queue.take_opt t.waiters with
  | Some resume -> resume ()
  | None ->
      if t.avail >= t.cap then
        invalid_arg "Sim.Resource.release: released more than acquired";
      t.avail <- t.avail + 1
