module Rng = Lightvm_sim.Rng

type process =
  | Poisson of { rate : float }
  | Diurnal of { base : float; amplitude : float; period : float }
  | Mmpp of {
      calm_rate : float;
      burst_rate : float;
      mean_calm : float;
      mean_burst : float;
    }

let name = function
  | Poisson _ -> "poisson"
  | Diurnal _ -> "diurnal"
  | Mmpp _ -> "mmpp"

(* A rate or period that is zero, negative, infinite or nan would make
   the generator spin without advancing: a zero diurnal period never
   accepts a thinning candidate, a non-positive MMPP sojourn mean never
   leaves its phase, an infinite rate never moves time. *)
let positive_finite x = Float.is_finite x && x > 0.

let of_flag ~rate ~period name =
  if not (positive_finite rate) then
    Error (Printf.sprintf "rate must be finite and positive (got %g)" rate)
  else if not (positive_finite period) then
    Error
      (Printf.sprintf
         "period (the run's duration) must be finite and positive (got %g s)"
         period)
  else
    match name with
    | "poisson" -> Ok (Poisson { rate })
    | "diurnal" -> Ok (Diurnal { base = rate; amplitude = 0.6; period })
    | "mmpp" ->
        (* Calm 5/6 of the time at rate/2, bursting 1/6 of the time at
           4x: stationary mean (5/6)(rate/2) + (1/6)(4 rate) = rate
           + rate/12 ~ rate; close enough for a load shape, and the
           burst-to-calm contrast is what the tail percentiles see. *)
        Ok
          (Mmpp
             {
               calm_rate = rate /. 2.;
               burst_rate = 4. *. rate;
               mean_calm = period /. 12.;
               mean_burst = period /. 60.;
             })
    | s ->
        Error
          (Printf.sprintf
             "unknown arrival process %S (expected poisson, diurnal or mmpp)"
             s)

let mean_rate = function
  | Poisson { rate } -> rate
  | Diurnal { base; _ } -> base
  | Mmpp { calm_rate; burst_rate; mean_calm; mean_burst } ->
      ((calm_rate *. mean_calm) +. (burst_rate *. mean_burst))
      /. (mean_calm +. mean_burst)

type state = Calm | Burst

type gen = {
  process : process;
  rng : Rng.t;
  mutable t : float;  (* virtual time of the last arrival produced *)
  mutable state : state;  (* mmpp modulating phase *)
  mutable state_left : float;  (* seconds left in the current phase *)
}

let generator process ~rng =
  { process; rng; t = 0.; state = Calm; state_left = 0. }

let two_pi = 8. *. atan 1.

(* Non-homogeneous Poisson by thinning (Lewis-Shedler): candidate gaps
   at the peak rate, accepted with probability lambda(t)/lambda_max.
   Bounded: every candidate consumes exactly one exponential and one
   uniform draw, so the stream position is a pure function of the
   accept/reject history. *)
let diurnal_gap g ~base ~amplitude ~period =
  let lambda_max = base *. (1. +. amplitude) in
  let rec draw t =
    let t = t +. Rng.exponential g.rng ~mean:(1. /. lambda_max) in
    let lambda = base *. (1. +. (amplitude *. sin (two_pi *. t /. period))) in
    if Rng.float g.rng 1.0 *. lambda_max <= lambda then t else draw t
  in
  let t' = draw g.t in
  let gap = t' -. g.t in
  g.t <- t';
  gap

(* Two-state MMPP: within a phase, arrivals are Poisson at the phase
   rate; phase sojourns are exponential. Competing exponentials: if the
   candidate arrival lands beyond the phase boundary, advance to the
   boundary, flip the phase and redraw from there (memorylessness makes
   the discarded remainder exact, not an approximation). *)
let mmpp_gap g ~calm_rate ~burst_rate ~mean_calm ~mean_burst =
  let rec draw acc =
    let rate, mean_sojourn =
      match g.state with
      | Calm -> (calm_rate, mean_calm)
      | Burst -> (burst_rate, mean_burst)
    in
    if g.state_left <= 0. then begin
      g.state_left <- Rng.exponential g.rng ~mean:mean_sojourn;
      draw acc
    end
    else
      let gap = Rng.exponential g.rng ~mean:(1. /. rate) in
      if gap <= g.state_left then begin
        g.state_left <- g.state_left -. gap;
        acc +. gap
      end
      else begin
        let consumed = g.state_left in
        g.state_left <- 0.;
        g.state <- (match g.state with Calm -> Burst | Burst -> Calm);
        draw (acc +. consumed)
      end
  in
  let gap = draw 0. in
  g.t <- g.t +. gap;
  gap

let next_gap g =
  match g.process with
  | Poisson { rate } ->
      let gap = Rng.exponential g.rng ~mean:(1. /. rate) in
      g.t <- g.t +. gap;
      gap
  | Diurnal { base; amplitude; period } ->
      diurnal_gap g ~base ~amplitude ~period
  | Mmpp { calm_rate; burst_rate; mean_calm; mean_burst } ->
      mmpp_gap g ~calm_rate ~burst_rate ~mean_calm ~mean_burst
