(** Deterministic fault injection.

    A {e fault point} is a named site in the simulated control plane
    where a failure can be injected: XenStore transaction conflicts and
    quota errors, per-phase failures in the 9-phase creation pipeline,
    hotplug script hangs, event-channel / grant-table allocation
    failures, migration stream corruption. The full registry is
    {!points}; code resolves a site's name once with {!val-point} and
    declares each check by calling {!fire} with the result.

    A {e spec} assigns a schedule to a subset of points — either a
    per-check Bernoulli probability ([name:0.05]) or a deterministic
    period ([name:@k], fire on every k-th check). An {e injector}
    ({!type-t}) is a spec plus one independent {!Rng} stream per
    configured point, all derived from a single seed.

    Determinism invariant: faults consume only [Rng] state derived from
    the injector seed — never host entropy, wall-clock time or
    scheduling order across domains. A point that is not configured (or
    when no injector is installed) costs nothing and consumes no RNG
    state, so a run under the empty spec is bit-identical to a run with
    no fault layer at all. Two runs with equal [(seed, spec)] inject
    the same faults at the same checks.

    Injectors are installed per {e simulation process}
    ({!with_injector}): the current injector travels with a process
    across suspensions and is inherited by the processes it spawns, so
    a fault stream follows the workload it was installed around — not
    the worker domain that happens to execute it. Parallel experiment
    jobs therefore each own their streams, as does every partition of
    a {!Engine.run_partitioned} whose processes install their own
    injector, and results stay independent of [--jobs]. *)

type spec
(** A parsed fault specification: a finite map from point name to
    schedule. Immutable. *)

type t
(** An injector: a {!type-spec} instantiated with per-point RNG streams and
    check/injection counters. Mutable (counters and RNG state advance
    on each configured check). *)

val points : (string * string) list
(** The registry of valid fault points as [(name, description)] pairs,
    in canonical order. {!parse_spec} rejects names not listed here. *)

val empty_spec : spec
(** The spec that configures no points. Running under [empty_spec] is
    observationally identical to running without an injector. *)

val spec_is_empty : spec -> bool

val parse_spec : string -> (spec, string) result
(** [parse_spec s] parses a comma-separated list of entries:

    - [name:P] with [0 <= P <= 1] — Bernoulli with probability [P];
    - [name:@K] with [K >= 1] — deterministically fire every [K]-th
      check of that point;
    - [name] alone — shorthand for [name:1] (always fire).

    [name] must match a registered point exactly, or be a prefix
    wildcard [prefix*] (e.g. [create.*]) expanding to every registered
    point with that prefix. The empty string parses to {!empty_spec}.
    Later entries override earlier ones for the same point. Returns
    [Error msg] on unknown names, wildcards matching nothing, or
    malformed schedules; never raises. *)

val spec_to_string : spec -> string
(** Canonical rendering (points in registry order), re-parseable by
    {!parse_spec}. [spec_to_string empty_spec = ""]. *)

val scale : spec -> float -> spec
(** [scale spec f] multiplies every Bernoulli probability by [f]
    (clamped to [1.0]) and divides every deterministic period by [f]
    (rounded up, floored at 1). [scale spec 0.0 = empty_spec].
    Requires [f >= 0]. Used by the [reliability] experiment family to
    sweep rising fault rates from one base spec. *)

val create : ?seed:int64 -> spec -> t
(** Build an injector. Each configured point gets an independent
    splitmix64 stream derived from [(seed, point name)] only, so the
    same [(seed, spec)] always yields the same fault sequence, whatever
    else the simulation does. [seed] defaults to [0L]. *)

val with_injector : t -> (unit -> 'a) -> 'a
(** [with_injector t f] installs [t] as the current injector for the
    extent of [f] (restoring the previous one after, even on
    exceptions). Inside a simulation the installation is per-process —
    it survives the process's suspensions and is inherited by processes
    spawned within the extent (see {!Engine.with_process_local});
    outside it is ordinary dynamic scoping on the calling domain.
    Nesting is allowed; the innermost wins. *)

val active : unit -> bool
(** Whether the calling process currently has an injector installed
    with a non-empty spec. *)

type point
(** A registered fault point, resolved once by name. *)

val point : string -> point
(** [point name] resolves a registered point. An unregistered name
    raises [Invalid_argument], so a typo fails loudly when the site's
    module initialises rather than silently never firing. *)

val fire : point -> bool
(** [fire p] declares one check of fault point [p] at the calling site
    and returns whether a fault fires. Returns [false] — without
    consuming RNG state, counting, or any other side effect — when no
    injector is installed for the calling process or the point is not
    configured in its spec. *)

val counts : t -> (string * (int * int)) list
(** Per-point [(checks, injected)] counters for every {e configured}
    point, in registry order. Deterministic given [(seed, spec)] and
    the simulated workload. *)

val injected_total : t -> int
(** Total faults injected across all points. *)
