(** Watch registry.

    A watch pairs a path with a client token; any modification at or
    below the path fires an event carrying the *modified* path and the
    token.

    The registry is indexed: a path-segment trie (plus a separate
    bucket per special path) makes {!matching} O(depth of the modified
    path + matching watches) and a per-owner index makes {!count},
    {!count_for} and {!remove_owner} O(1)/O(own watches) on the host.

    This is a *host-cost* optimisation only. The paper's scalability
    problem — the real xenstored scanning every registered watch on
    every commit — is a *modeled* cost: {!Xs_server} charges
    [count × per_watch_check] simulated nanoseconds per fire,
    regardless of how the lookup is implemented here. Simulated
    results are identical to the linear-scan registry; only wall-clock
    time changes. *)

type event = { event_path : Xs_path.t; token : string }

type t

val create : unit -> t

val count : t -> int
(** Total registered watches. O(1). *)

val count_for : t -> owner:int -> int
(** Watches registered by [owner] (the quota check). O(1). *)

val add :
  t ->
  owner:int ->
  path:Xs_path.t ->
  token:string ->
  deliver:(event -> unit) ->
  unit

val remove : t -> owner:int -> path:Xs_path.t -> token:string -> bool
(** Removes every watch matching [(owner, path, token)] — duplicates
    included, matching the semantics of an unwatch request against a
    registry that permits double registration. [true] when something
    was removed. *)

val remove_owner : t -> owner:int -> int
(** Drop all watches of a domain (on release); returns how many.
    O(watches owned), not O(registry). *)

val matching : t -> modified:Xs_path.t -> (Xs_path.t * string * (event -> unit)) list
(** Watches whose path is a prefix of (or equal to) [modified], in
    registration order, as [(watch_path, token, deliver)]. Special
    paths ([@introduceDomain], [@releaseDomain]) only match exactly.
    Single pass over the trie spine; a fire that hits nothing
    allocates nothing. *)
