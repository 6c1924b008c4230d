module Engine = Lightvm_sim.Engine

type 'a t = {
  mutable target : int;
  make : unit -> 'a;
  shells : 'a Queue.t;
  mutable refilling : bool;
  mutable takes : int;
  mutable hits : int;
}

let create ~target ~make =
  if target < 1 then invalid_arg "Pool.create: target < 1";
  {
    target;
    make;
    shells = Queue.create ();
    refilling = false;
    takes = 0;
    hits = 0;
  }

let prefill t =
  while Queue.length t.shells < t.target do
    Queue.add (t.make ()) t.shells
  done

let size t = Queue.length t.shells
let target t = t.target

let set_target t n =
  if n < 0 then invalid_arg "Pool.set_target: negative target";
  t.target <- n

let take_surplus t =
  if Queue.length t.shells > t.target then Queue.take_opt t.shells else None

let rec refill_loop t =
  if Queue.length t.shells < t.target then begin
    match t.make () with
    | shell ->
        Queue.add shell t.shells;
        refill_loop t
    | exception _ ->
        (* Background refills must not crash the daemon (e.g. the host
           ran out of memory); creation paths will surface the error
           when a synchronous build fails. *)
        t.refilling <- false
  end
  else t.refilling <- false

let kick_refill t =
  if not t.refilling then begin
    t.refilling <- true;
    Engine.spawn ~name:"chaos-daemon-refill" (fun () -> refill_loop t)
  end

let take t =
  t.takes <- t.takes + 1;
  match Queue.take_opt t.shells with
  | Some shell ->
      t.hits <- t.hits + 1;
      kick_refill t;
      shell
  | None ->
      kick_refill t;
      t.make ()

let takes t = t.takes
let hits t = t.hits
