(* The list-based processor-sharing CPU that [Lightvm_sim.Cpu]'s
   array-backed cores replaced, kept as the reference model for
   [test_sim.ml]'s "array cores = list reference" property. Below the
   shim it is the replaced [lib/sim/cpu.ml] verbatim. The engine has no
   [after_same] any more, so the shim keeps each timer's callback
   beside its token and re-arms it with [after]: the same schedule. *)

module Engine = struct
  include Lightvm_sim.Engine

  type token = { tok : Lightvm_sim.Engine.token; callback : unit -> unit }

  let after delay callback = { tok = after delay callback; callback }
  let cancel t = cancel t.tok
  let after_same t delay = after delay t.callback
end

type job = {
  mutable remaining : float; (* reference-speed seconds still to serve *)
  done_ : unit Engine.Ivar.t;
}

type core = {
  mutable jobs : job list; (* insertion order *)
  mutable last : float; (* clock at last advance *)
  mutable event : Engine.token option;
  mutable busy : float; (* cumulative busy seconds *)
}

type t = { speed : float; cores : core array }

let epsilon = 1e-12

let create ?(speed = 1.0) ~ncores () =
  if ncores < 1 then invalid_arg "Sim.Cpu.create: ncores < 1";
  if speed <= 0. then invalid_arg "Sim.Cpu.create: speed <= 0";
  {
    speed;
    cores =
      Array.init ncores (fun _ ->
          { jobs = []; last = 0.; event = None; busy = 0. });
  }

let ncores t = Array.length t.cores

(* Serve [served] seconds of work to each job. *)
let rec serve served = function
  | [] -> ()
  | j :: rest ->
      j.remaining <- j.remaining -. served;
      serve served rest

let advance t core =
  let now = Engine.now () in
  let n = List.length core.jobs in
  if n > 0 then begin
    let elapsed = now -. core.last in
    if elapsed > 0. then begin
      core.busy <- core.busy +. elapsed;
      serve (elapsed *. t.speed /. float_of_int n) core.jobs
    end
  end;
  core.last <- now

let finished j = j.remaining <= epsilon

(* The least remaining work, picked with [Stdlib.min]'s rule but
   without boxing an accumulator per job. *)
let rec min_remaining acc = function
  | [] -> acc
  | j :: rest ->
      min_remaining (if acc <= j.remaining then acc else j.remaining) rest

(* Retire the finished jobs and arm one timer for the next completion.
   The timer's callback is built once per busy period: a re-arm
   schedules the callback of the timer it replaces. *)
let rec reschedule t core =
  let prev = core.event in
  (match prev with
  | Some tok ->
      Engine.cancel tok;
      core.event <- None
  | None -> ());
  if List.exists finished core.jobs then begin
    let done_jobs, active = List.partition finished core.jobs in
    core.jobs <- active;
    List.iter (fun j -> Engine.Ivar.fill j.done_ ()) done_jobs
  end;
  match core.jobs with
  | [] -> ()
  | jobs ->
      let min_rem = min_remaining infinity jobs in
      let n = float_of_int (List.length jobs) in
      let dt = min_rem *. n /. t.speed in
      let now = Engine.now () in
      if now +. dt <= now then begin
        (* The leader's residual work is below one ulp of the clock:
           the absolute [epsilon] threshold stops catching float
           residue once the clock is large (ulp grows with magnitude),
           and a timer at [now +. dt = now] would fire at a frozen
           clock, serve an elapsed time of zero and reschedule itself
           forever. Finishing the job immediately is within float
           resolution of finishing it on time. *)
        List.iter
          (fun j -> if j.remaining <= min_rem then j.remaining <- 0.)
          jobs;
        reschedule t core
      end
      else
        core.event <-
          Some
            (match prev with
            | Some tok -> Engine.after_same tok dt
            | None ->
                Engine.after dt (fun () ->
                    advance t core;
                    reschedule t core))

let core_of t core =
  if core < 0 || core >= Array.length t.cores then
    invalid_arg "Sim.Cpu: core index out of range";
  t.cores.(core)

let enqueue t c work =
  let done_ = Engine.Ivar.create () in
  if work <= 0. then Engine.Ivar.fill done_ ()
  else begin
    advance t c;
    c.jobs <- c.jobs @ [ { remaining = work; done_ } ];
    reschedule t c
  end;
  done_

let consume_async t ~core work = enqueue t (core_of t core) work

(* A burst alone on its core, [rem] of its work left, the clock at
   [c.last]. The timer path would arm a completion timer and park; when
   [Engine.try_sleep] says that timer would fire next, the burst
   finishes in place instead, with the very expressions of that path:
   [reschedule]'s [dt] and sub-ulp test for one job, then [advance]'s
   service when the timer fires — again while a residue above [epsilon]
   is left. Where the window would not admit a wake, the job enters the
   timer path as the last timer left it. *)
let rec serve_alone t c rem =
  if not (rem <= epsilon) then begin
    let now = Engine.now () in
    let dt = rem *. 1. /. t.speed in
    let wake = now +. dt in
    if wake <= now then () (* [reschedule]'s sub-ulp retire *)
    else if Engine.try_sleep dt then begin
      let elapsed = wake -. c.last in
      c.busy <- c.busy +. elapsed;
      c.last <- wake;
      serve_alone t c (rem -. (elapsed *. t.speed /. 1.))
    end
    else begin
      let done_ = Engine.Ivar.create () in
      c.jobs <- [ { remaining = rem; done_ } ];
      reschedule t c;
      Engine.Ivar.read done_
    end
  end

let consume t ~core work =
  let c = core_of t core in
  if not (work <= 0.) then
    match c.jobs with
    | [] ->
        advance t c;
        serve_alone t c work
    | _ :: _ -> Engine.Ivar.read (enqueue t c work)

let load t ~core = List.length t.cores.(core).jobs

let total_load t =
  Array.fold_left (fun acc c -> acc + List.length c.jobs) 0 t.cores

let least_loaded t ~first ~count =
  if count < 1 then invalid_arg "Sim.Cpu.least_loaded: no cores given";
  let best = ref first in
  for core = first + 1 to first + count - 1 do
    if load t ~core < load t ~core:!best then best := core
  done;
  !best

let busy_seconds t =
  let now = Engine.now () in
  Array.fold_left
    (fun acc c ->
      let extra = if c.jobs <> [] then now -. c.last else 0. in
      acc +. c.busy +. extra)
    0. t.cores

let utilization t ~since =
  let now = Engine.now () in
  let span = now -. since in
  if span <= 0. then 0.
  else busy_seconds t /. (span *. float_of_int (Array.length t.cores))

let reset_stats t =
  Array.iter
    (fun c ->
      c.busy <- 0.;
      c.last <- Engine.now ())
    t.cores
