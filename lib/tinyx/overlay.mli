(** Filesystem assembly via OverlayFS (Section 3.2).

    Tinyx mounts an empty overlay over a debootstrap base, installs the
    resolved packages there (so maintainer scripts find the utilities
    they expect), strips caches and package-manager state, then merges
    the overlay onto a BusyBox underlay and takes the result as the
    distribution. *)

type layer = {
  layer_name : string;
  files_kb : int;
}

type t

val debootstrap_base : layer
(** The minimal Debian the overlay is mounted over (never shipped). *)

val busybox_underlay : layer

val assemble :
  repo:Package.repo -> packages:string list -> app_glue_kb:int -> t
(** Install the packages into the overlay and run the full pipeline. *)

val upper_kb : t -> int
(** The overlay's upper directory after installation (pre-strip). *)

val stripped_kb : t -> int
(** Removed caches, dpkg/apt state and other unnecessary files. *)

val distribution_kb : t -> int
(** Final merged distribution size (what ships in the image). *)
