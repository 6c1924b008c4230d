(** XenStore paths: absolute, slash-separated, validated.

    Mirrors the constraints of the real store: segment characters are
    restricted, segments are bounded, and the whole path is bounded
    (XENSTORE_ABS_PATH_MAX).

    {b Representation.} A path is its parent, one segment and the byte
    length of its canonical string: the parent/child relation the
    XenStore spec defines paths by. {!concat} therefore allocates one
    4-word node at any depth, and paths built from one directory share
    it. {!length} is a field read. The canonical string is built only
    by {!to_string} (and {!compare}): for the wire, dumps and
    the paths a caller stores as values. {!segments}, {!val-parent},
    {!depth} and {!of_string} allocate too; the store, the watch
    registry and the daemon walk the chain instead. The type is
    private so that those walkers can match on it; only this module
    builds paths, so every chain is valid. *)

type t = private
  | Root
  | Seg of { parent : t; seg : string; len : int }
      (** [len] is the byte length of the canonical string *)
  | Special of string  (** ["@introduceDomain"] or ["@releaseDomain"] *)

exception Invalid of string

val root : t

val of_string : string -> t
(** Parses an absolute path like ["/local/domain/3/name"]. Raises
    {!Invalid} on relative paths, empty segments, illegal characters or
    oversized paths. A single ["/"] is the root. Special watch paths
    ["@introduceDomain"] and ["@releaseDomain"] are accepted.

    A plain parser with no cache: it serves wire input, the CLI and
    tests. Code that already holds a directory path extends it with
    {!concat} instead of formatting and re-parsing a string. *)

val of_string_opt : string -> t option

val to_string : t -> string
(** The canonical string, built on each call: one allocation, the
    string itself. *)

val length : t -> int
(** [String.length (to_string t)], without building the string. *)

val segments : t -> string list
(** Root has no segments. Builds the list on each call. *)

val is_special : t -> bool
(** True for the [@...] watch paths. *)

val depth : t -> int

val concat : t -> string -> t
(** [concat p seg] appends one validated segment: the result has
    [p]'s segments followed by [seg], exactly as if parsed. Allocates
    one node and shares [p] and [seg].
    @raise Invalid on a special [p], on illegal characters, an empty or
    oversized segment (over 256 bytes), or when the result would exceed
    3072 bytes, the protocol's path limit. *)

val ( / ) : t -> string -> t
(** Alias for {!concat}. *)

val parent : t -> t option
(** [None] for the root. *)

val basename : t -> string option

val is_prefix : t -> of_:t -> bool
(** [is_prefix p ~of_:q]: does [p] equal [q] or name an ancestor of
    [q]? The root is a prefix of everything non-special. *)

val equal : t -> t -> bool
(** Equality of the canonical strings. Allocation-free. *)

val compare : t -> t -> int
(** The order of the canonical strings. *)

val domain_path : int -> t
(** [/local/domain/<domid>] *)
