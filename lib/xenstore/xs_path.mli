(** XenStore paths: absolute, slash-separated, validated.

    Mirrors the constraints of the real store: segment characters are
    restricted, segments are bounded, and the whole path is bounded
    (XENSTORE_ABS_PATH_MAX). *)

type t

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

val segments : t -> string list
(** Root has no segments. The segment list is stored in the path value
    (as is the canonical string), so [segments]/[to_string]/[compare]
    are allocation-free — store operations never re-split the path. *)

val is_special : t -> bool
(** True for the [@...] watch paths. *)

val depth : t -> int

val concat : t -> string -> t
(** [concat p seg] appends one validated segment: the result has
    [p]'s segments followed by [seg], exactly as if parsed.
    @raise Invalid on a special [p], on illegal characters, an empty or
    oversized segment (over 256 bytes), or when the result would exceed
    3072 bytes, the protocol's path limit. *)

val ( / ) : t -> string -> t
(** Alias for {!concat}. *)

val extend : t -> string list -> t
(** [extend p segs] is [List.fold_left concat p segs], built in one
    step: the segment list and the string are allocated once, not once
    per level. [extend p [seg]] is [concat p seg].
    @raise Invalid as {!concat} does. *)

val parent : t -> t option
(** [None] for the root. *)

val basename : t -> string option

val is_prefix : t -> of_:t -> bool
(** [is_prefix p ~of_:q]: does [p] equal [q] or name an ancestor of
    [q]? The root is a prefix of everything non-special. *)

val equal : t -> t -> bool

val compare : t -> t -> int

val pp : Format.formatter -> t -> unit

val domain_path : int -> t
(** [/local/domain/<domid>] *)
