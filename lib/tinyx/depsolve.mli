(** Dependency resolution for the Tinyx distribution (Section 3.2).

    Tinyx derives the package set for an application from (1) the
    shared libraries the binary links against (objdump) and (2) the
    package manager's dependency graph — minus a blacklist of packages
    "marked as required (mostly for installation, e.g. dpkg) but not
    strictly needed for running the application", plus a user
    whitelist. *)

type result = {
  packages : string list;  (** resolved closure, sorted *)
  blacklisted : string list;  (** dropped by the blacklist *)
  total_kb : int;
}

val resolve :
  ?whitelist:string list ->
  repo:Package.repo ->
  app:string ->
  unit ->
  (result, string) Result.t
(** Closure of the app, its objdump-discovered library providers, the
    whitelist and BusyBox. Unknown app or whitelist entries error. *)

val closure :
  repo:Package.repo -> string list -> (string list, string) Result.t
(** Plain transitive dependency closure (no blacklist), sorted. *)
