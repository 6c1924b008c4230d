(* Fixed-size worker pool on raw Domain.spawn + Mutex/Condition.

   Jobs are independent closures (typically whole simulations — each
   Engine.run is single-domain and deterministic, so parallelism lives
   across simulations, never inside one). Results come back in
   submission order regardless of completion order, which keeps every
   consumer's output bit-identical to a sequential run. *)

type outcome =
  | Pending
  | Done
  | Failed of exn * Printexc.raw_backtrace

(* One cell per submitted job; the worker writes the slot and flips the
   outcome under the promise lock, the submitter waits on the
   condition. *)
type promise = {
  p_lock : Mutex.t;
  p_cond : Condition.t;
  mutable p_state : outcome;
}

type t = {
  lock : Mutex.t;
  work_ready : Condition.t; (* queue non-empty or pool closed *)
  queue : (unit -> unit) Queue.t;
  mutable closed : bool;
  mutable workers : unit Domain.t array;
}

let default_cap = 8

let default_jobs () =
  max 1 (min (Domain.recommended_domain_count ()) default_cap)

(* The simulations allocate mostly short-lived closures, continuations
   and heap slots; under the default GC parameters (256k-word minor
   heap, space_overhead 120) a long DES run spends a visible fraction
   of its time in minor collections and promotes scratch that dies
   moments later. Give every simulation domain a larger minor heap and
   a lazier major GC. Settings are only ever raised, never lowered, so
   a caller that tuned its environment harder keeps its knobs. *)
let sim_minor_heap_words = 4 * 1024 * 1024 (* 32 MB on 64-bit *)

let sim_space_overhead = 200

let tune_gc () =
  let c = Gc.get () in
  if
    c.Gc.minor_heap_size < sim_minor_heap_words
    || c.Gc.space_overhead < sim_space_overhead
  then
    Gc.set
      {
        c with
        Gc.minor_heap_size = max c.Gc.minor_heap_size sim_minor_heap_words;
        space_overhead = max c.Gc.space_overhead sim_space_overhead;
      }

let rec worker_loop t =
  Mutex.lock t.lock;
  let rec take () =
    match Queue.take_opt t.queue with
    | Some job -> Some job
    | None ->
        if t.closed then None
        else begin
          Condition.wait t.work_ready t.lock;
          take ()
        end
  in
  match take () with
  | None -> Mutex.unlock t.lock
  | Some job ->
      Mutex.unlock t.lock;
      job ();
      worker_loop t

let create ~workers =
  if workers < 1 then invalid_arg "Sim.Pool.create: workers < 1";
  let t =
    {
      lock = Mutex.create ();
      work_ready = Condition.create ();
      queue = Queue.create ();
      closed = false;
      workers = [||];
    }
  in
  t.workers <-
    Array.init workers
      (fun _ ->
        Domain.spawn (fun () ->
            tune_gc ();
            worker_loop t));
  t

let submit t f =
  let p =
    { p_lock = Mutex.create (); p_cond = Condition.create ();
      p_state = Pending }
  in
  let slot = ref None in
  let job () =
    let state =
      match f () with
      | v ->
          slot := Some v;
          Done
      | exception e -> Failed (e, Printexc.get_raw_backtrace ())
    in
    Mutex.lock p.p_lock;
    p.p_state <- state;
    Condition.signal p.p_cond;
    Mutex.unlock p.p_lock
  in
  Mutex.lock t.lock;
  if t.closed then begin
    Mutex.unlock t.lock;
    invalid_arg "Sim.Pool.submit: pool is shut down"
  end;
  Queue.add job t.queue;
  Condition.signal t.work_ready;
  Mutex.unlock t.lock;
  (p, slot)

let await (p, slot) =
  Mutex.lock p.p_lock;
  while (match p.p_state with Pending -> true | _ -> false) do
    Condition.wait p.p_cond p.p_lock
  done;
  let state = p.p_state in
  Mutex.unlock p.p_lock;
  match state with
  | Done -> (
      match !slot with Some v -> Ok v | None -> assert false)
  | Failed (e, bt) -> Error (e, bt)
  | Pending -> assert false

let shutdown t =
  Mutex.lock t.lock;
  t.closed <- true;
  Condition.broadcast t.work_ready;
  Mutex.unlock t.lock;
  Array.iter Domain.join t.workers

let run ?jobs thunks =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  let n = List.length thunks in
  if jobs <= 1 || n <= 1 then List.map (fun f -> f ()) thunks
  else begin
    let t = create ~workers:(min jobs n) in
    let outcomes =
      Fun.protect
        ~finally:(fun () -> shutdown t)
        (fun () ->
          let promises = List.map (submit t) thunks in
          List.map await promises)
    in
    (* Re-raise the first failure in submission order, after every job
       has finished (a failed job never aborts its siblings mid-run). *)
    List.map
      (function
        | Ok v -> v
        | Error (e, bt) -> Printexc.raise_with_backtrace e bt)
      outcomes
  end

