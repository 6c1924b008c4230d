(** The Linux syscall-API growth dataset behind Figure 1 — the paper's
    motivation for why the container attack surface keeps getting
    harder to secure. Counts are x86_32 syscall-table sizes per kernel
    release (approximate public values). *)

type point = {
  year : int;
  version : string;
  syscalls : int;
}

val data : point list
(** Chronological. *)

val growth_per_year : unit -> float
(** Least-squares slope (syscalls added per year). *)
