(** Package metadata for the embedded Debian-like repository Tinyx
    resolves against (Section 3.2). *)

type t = {
  name : string;
  size_kb : int;  (** installed size *)
  deps : string list;  (** package names *)
  libs : string list;  (** shared libraries this package provides *)
  required_for_install_only : bool;
      (** dpkg/apt-style packages marked required but not needed at
          runtime — Tinyx's blacklist targets these *)
  has_install_scripts : bool;
      (** maintainer scripts that need utilities a minimal system lacks
          (why Tinyx installs into an OverlayFS over debootstrap) *)
}

type repo

val repo_of_list : t list -> repo

val find : repo -> string -> t option

val providers_of_lib : repo -> string -> t list
(** Packages providing a shared library (objdump resolution). *)

val size_kb : repo -> string list -> int
(** Total installed size of a package set. *)
