(* Busy-time accounting. A record of floats only, so both fields are
   stored unboxed and updating them allocates nothing. *)
type acct = {
  mutable busy : float; (* cumulative busy seconds *)
  mutable last : float; (* clock at last advance *)
}

(* A core's jobs, in insertion order, are the first [n] slots of two
   parallel arrays: the remaining work (reference-speed seconds still
   to serve, in an unboxed float array) and the waker to call when the
   job finishes. A waker is the waiting burst's own resume, or an
   [Ivar.fill] for {!consume_async}. Slots from [n] on hold [no_waker]. *)
type core = {
  mutable rem : float array;
  mutable wakers : (unit -> unit) array;
  mutable n : int;
  acct : acct;
  mutable event : Engine.token;
      (* the last completion timer armed; [Engine.no_token] before the
         first *)
  mutable on_timer : (unit -> unit) option;
      (* the completion timer's callback, built at the first timer *)
}

type t = { speed : float; cores : core array }

let epsilon = 1e-12

(* The waker of a free slot, and of a burst whose process has not
   parked yet. *)
let no_waker () = ()

let create ?(speed = 1.0) ~ncores () =
  if ncores < 1 then invalid_arg "Sim.Cpu.create: ncores < 1";
  if speed <= 0. then invalid_arg "Sim.Cpu.create: speed <= 0";
  {
    speed;
    cores =
      Array.init ncores (fun _ ->
          {
            rem = [||];
            wakers = [||];
            n = 0;
            acct = { busy = 0.; last = 0. };
            event = Engine.no_token;
            on_timer = None;
          });
  }

let ncores t = Array.length t.cores

let advance t c =
  let now = Engine.now () in
  let n = c.n in
  if n > 0 then begin
    let a = c.acct in
    let elapsed = now -. a.last in
    if elapsed > 0. then begin
      a.busy <- a.busy +. elapsed;
      let served = elapsed *. t.speed /. float_of_int n in
      let rem = c.rem in
      for i = 0 to n - 1 do
        rem.(i) <- rem.(i) -. served
      done
    end
  end;
  c.acct.last <- now

(* Drop the finished jobs, keeping the others in insertion order, and
   wake the finished ones in insertion order. A waker only schedules
   its process, so waking during the pass is waking after it. *)
let retire c =
  let rem = c.rem and wakers = c.wakers in
  let kept = ref 0 in
  for i = 0 to c.n - 1 do
    let r = rem.(i) in
    let w = wakers.(i) in
    if r <= epsilon then begin
      wakers.(i) <- no_waker;
      w ()
    end
    else begin
      let k = !kept in
      if k < i then begin
        rem.(k) <- r;
        wakers.(k) <- w;
        wakers.(i) <- no_waker
      end;
      kept := k + 1
    end
  done;
  c.n <- !kept

(* The least remaining work, picked with [Stdlib.min]'s rule. *)
let[@inline] min_remaining c =
  let m = ref infinity in
  for i = 0 to c.n - 1 do
    let r = c.rem.(i) in
    if not (!m <= r) then m := r
  done;
  !m

(* Retire the finished jobs and arm one timer for the next completion. *)
let rec reschedule t c =
  Engine.cancel c.event;
  retire c;
  if c.n > 0 then begin
    let min_rem = min_remaining c in
    let dt = min_rem *. float_of_int c.n /. t.speed in
    let now = Engine.now () in
    if now +. dt <= now then begin
      (* The leader's residual work is below one ulp of the clock:
         the absolute [epsilon] threshold stops catching float
         residue once the clock is large (ulp grows with magnitude),
         and a timer at [now +. dt = now] would fire at a frozen
         clock, serve an elapsed time of zero and reschedule itself
         forever. Finishing the job immediately is within float
         resolution of finishing it on time. *)
      for i = 0 to c.n - 1 do
        if c.rem.(i) <= min_rem then c.rem.(i) <- 0.
      done;
      reschedule t c
    end
    else c.event <- Engine.after dt (on_timer t c)
  end

and on_timer t c =
  match c.on_timer with
  | Some f -> f
  | None ->
      let f () =
        advance t c;
        reschedule t c
      in
      c.on_timer <- Some f;
      f

let core_of t core =
  if core < 0 || core >= Array.length t.cores then
    invalid_arg "Sim.Cpu: core index out of range";
  t.cores.(core)

(* Add a job at the end; a full core doubles its arrays. *)
let append c work waker =
  let n = c.n in
  if n = Array.length c.rem then begin
    let cap = max 4 (2 * n) in
    let rem = Array.make cap 0. and wakers = Array.make cap no_waker in
    Array.blit c.rem 0 rem 0 n;
    Array.blit c.wakers 0 wakers 0 n;
    c.rem <- rem;
    c.wakers <- wakers
  end;
  c.rem.(n) <- work;
  c.wakers.(n) <- waker;
  c.n <- n + 1

let nan_work () = invalid_arg "Sim.Cpu: NaN work"

let consume_async t ~core work =
  let c = core_of t core in
  let done_ = Engine.Ivar.create () in
  if not (work > 0.) then
    if work <= 0. then Engine.Ivar.fill done_ () else nan_work ()
  else begin
    advance t c;
    append c work (fun () -> Engine.Ivar.fill done_ ());
    reschedule t c
  end;
  done_

(* Queue a burst on the advanced core [c] and block until it is
   served. The burst is the core's last job until its process parks;
   it waits with [no_waker], which is a no-op if [reschedule] retires
   it at once and is replaced by the process's resume otherwise. *)
let wait_burst t c work =
  append c work no_waker;
  reschedule t c;
  if c.n > 0 && c.wakers.(c.n - 1) == no_waker then
    Engine.suspend (fun resume -> c.wakers.(c.n - 1) <- resume)

(* A burst alone on its core, [rem] of its work left, the clock at
   [c.acct.last]. The timer path would arm a completion timer and park;
   when [Engine.try_sleep] says that timer would fire next, the burst
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
      let a = c.acct in
      let elapsed = wake -. a.last in
      a.busy <- a.busy +. elapsed;
      a.last <- wake;
      serve_alone t c (rem -. (elapsed *. t.speed /. 1.))
    end
    else wait_burst t c rem
  end

let consume t ~core work =
  let c = core_of t core in
  if not (work > 0.) then (if not (work <= 0.) then nan_work ())
  else begin
    advance t c;
    if c.n = 0 then serve_alone t c work else wait_burst t c work
  end

let load t ~core = t.cores.(core).n

let total_load t = Array.fold_left (fun acc c -> acc + c.n) 0 t.cores

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
      let extra = if c.n > 0 then now -. c.acct.last else 0. in
      acc +. c.acct.busy +. extra)
    0. t.cores

let utilization t ~since =
  let now = Engine.now () in
  let span = now -. since in
  if span <= 0. then 0.
  else busy_seconds t /. (span *. float_of_int (Array.length t.cores))

let reset_stats t =
  Array.iter
    (fun c ->
      c.acct.busy <- 0.;
      c.acct.last <- Engine.now ())
    t.cores
