(** Open-loop arrival processes for the serverless traffic generator
    (DESIGN.md section 12).

    Three request-interarrival models, each driven by one explicit
    {!Lightvm_sim.Rng} splitmix stream so a run is a pure function of
    its seed: a homogeneous Poisson process, a diurnal sinusoid
    (non-homogeneous Poisson thinned against its peak rate) and a
    two-state MMPP (Markov-modulated Poisson: calm/burst phases with
    exponentially distributed sojourns). At the default 2000 req/s a
    simulated day is ~170 million requests — the generator allocates
    nothing per arrival beyond the draws themselves. *)

type process =
  | Poisson of { rate : float }  (** arrivals/second *)
  | Diurnal of {
      base : float;  (** mean arrivals/second over a full period *)
      amplitude : float;
          (** relative swing in [\[0, 1\]]: the instantaneous rate is
              [base * (1 + amplitude * sin (2 pi t / period))] *)
      period : float;  (** seconds per "day" *)
    }
  | Mmpp of {
      calm_rate : float;
      burst_rate : float;
      mean_calm : float;  (** mean seconds spent calm per visit *)
      mean_burst : float;  (** mean seconds per burst *)
    }

val name : process -> string
(** ["poisson"], ["diurnal"] or ["mmpp"]. *)

val of_flag :
  rate:float -> period:float -> string -> (process, string) result
(** Parse a [--arrival] flag value (["poisson"], ["diurnal"],
    ["mmpp"]) into a process with conventional shapes at mean rate
    [rate]: diurnal swings +/-60% of [rate] over [period]; mmpp
    alternates calm at [rate]/2 with bursts at 4x[rate] (roughly one
    fifth of the time), preserving the mean. [Error] on an unknown name
    and unless [rate] and [period] are both finite and positive: any
    other value would leave the generator unable to advance. *)

val mean_rate : process -> float
(** Long-run arrivals/second (exact for poisson and diurnal, the
    stationary rate for mmpp). *)

type gen
(** A stateful arrival generator: owns its position in virtual time and
    in the modulating state, draws from the stream it was created
    with. *)

val generator : process -> rng:Lightvm_sim.Rng.t -> gen

val next_gap : gen -> float
(** Seconds from the previous arrival (or from t = 0) to the next one.
    Always finite and non-negative; the caller sleeps the gap and fires
    the request. *)
