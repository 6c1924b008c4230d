module Engine = Lightvm_sim.Engine

type 'a t = {
  mutable target : int;
  make : unit -> ('a, string) result;
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

(* Build shells up to the target, stopping at the first that cannot be
   built (e.g. the host ran out of memory): a later take builds again. *)
let rec prefill t =
  if Queue.length t.shells < t.target then
    match t.make () with
    | Ok shell ->
        Queue.add shell t.shells;
        prefill t
    | Error _ -> ()

let size t = Queue.length t.shells
let target t = t.target

let set_target t n =
  if n < 0 then invalid_arg "Pool.set_target: negative target";
  t.target <- n

let take_surplus t =
  if Queue.length t.shells > t.target then Queue.take_opt t.shells else None

let kick_refill t =
  if not t.refilling then begin
    t.refilling <- true;
    Engine.spawn ~name:"chaos-daemon-refill" (fun () ->
        prefill t;
        t.refilling <- false)
  end

let take t =
  t.takes <- t.takes + 1;
  match Queue.take_opt t.shells with
  | Some shell ->
      t.hits <- t.hits + 1;
      kick_refill t;
      Ok shell
  | None ->
      kick_refill t;
      t.make ()

let takes t = t.takes
let hits t = t.hits
