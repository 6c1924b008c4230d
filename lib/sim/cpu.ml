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

let advance t core =
  let now = Engine.now () in
  let n = List.length core.jobs in
  if n > 0 then begin
    let elapsed = now -. core.last in
    if elapsed > 0. then begin
      core.busy <- core.busy +. elapsed;
      let served = elapsed *. t.speed /. float_of_int n in
      List.iter (fun j -> j.remaining <- j.remaining -. served) core.jobs
    end
  end;
  core.last <- now

let rec reschedule t core =
  (match core.event with
  | Some tok ->
      Engine.cancel tok;
      core.event <- None
  | None -> ());
  let finished, active =
    List.partition (fun j -> j.remaining <= epsilon) core.jobs
  in
  core.jobs <- active;
  List.iter (fun j -> Engine.Ivar.fill j.done_ ()) finished;
  match active with
  | [] -> ()
  | jobs ->
      let min_rem =
        List.fold_left (fun acc j -> min acc j.remaining) infinity jobs
      in
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
      else begin
        let tok =
          Engine.after dt (fun () ->
              advance t core;
              reschedule t core)
        in
        core.event <- Some tok
      end

let consume_async t ~core work =
  if core < 0 || core >= Array.length t.cores then
    invalid_arg "Sim.Cpu: core index out of range";
  let c = t.cores.(core) in
  let done_ = Engine.Ivar.create () in
  if work <= 0. then Engine.Ivar.fill done_ ()
  else begin
    advance t c;
    c.jobs <- c.jobs @ [ { remaining = work; done_ } ];
    reschedule t c
  end;
  done_

let consume t ~core work = Engine.Ivar.read (consume_async t ~core work)

let load t ~core = List.length t.cores.(core).jobs

let total_load t =
  Array.fold_left (fun acc c -> acc + List.length c.jobs) 0 t.cores

let pick_least_loaded t ~cores =
  match cores with
  | [] -> invalid_arg "Sim.Cpu.pick_least_loaded: no cores given"
  | first :: rest ->
      List.fold_left
        (fun best c ->
          if load t ~core:c < load t ~core:best then c else best)
        first rest

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
