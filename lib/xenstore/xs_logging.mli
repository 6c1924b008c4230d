(** Access-log model.

    The real xenstored appends every access to its log and rotates a
    ring of files when the current one reaches a line limit. Rotation
    stalls the (single-threaded) daemon — the paper traces the regular
    spikes in Figures 4 and 9 to exactly this. *)

type t

val files : int
(** Size of the rotation ring, 20 files as in the paper; rotation cost
    scales with it. *)

val create : enabled:bool -> t
(** A file holds 13,215 lines, as in the paper. *)

val log_access : t -> lines:int -> bool
(** Record [lines] of log output; [true] iff a rotation was triggered
    (at most one per call). No-op (and [false]) when disabled. *)

val total_lines : t -> int

val rotations : t -> int
