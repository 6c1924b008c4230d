(** The container engine (Docker 1.13 in the paper's experiments).

    [run] charges the real cost structure of [docker run]: client/daemon
    round-trip, per-layer overlay mounts, namespace + cgroup setup, veth
    pair and bridge attachment, and daemon bookkeeping that grows with
    the number of live containers. Storage is reserved from a
    thin-provisioned pool that grows in large chunks — the latency
    spikes and the memory jumps of Figure 10 — and when the host cannot
    back the next chunk, the engine wedges, which is why the paper's
    run stops at ~3,000 containers. *)

type t

type container

type error =
  | Out_of_memory
  | Engine_wedged

val create : Machine.t -> t

val run :
  t ->
  ?rss_kb:int ->
  image:Layers.image ->
  unit ->
  (container, error) result
(** Create + start one container (blocking). [rss_kb] is the payload
    process's resident memory (default 1.5 MB, a Micropython-sized
    process). *)

val stop : t -> container -> unit

val pause : t -> container -> unit

val unpause : t -> container -> unit

val running : t -> int

val is_paused : container -> bool

val rss_kb : t -> int
(** Resident memory of the engine + all containers (the Fig 14
    metric). *)

val reserved_kb : t -> int
(** Thin-pool reservations (the Fig 10 density limiter). *)

val wedged : t -> bool
