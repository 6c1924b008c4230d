(** Kernel configuration minimisation (Section 3.2).

    Tinyx starts from the [tinyconfig] target, adds what the platform
    needs (e.g. Xen frontends), and can then run a test-driven pruning
    loop: disable each candidate option in turn, rebuild, boot, run the
    user's test; keep the option off if the test still passes. *)

type config

val tinyconfig : config
(** The baseline: only the tinyconfig defaults. *)

val for_platform : Kconfig_types.platform -> config
(** tinyconfig + the platform's required options (with their
    dependencies). *)

val enable : config -> string -> (config, string) Result.t
(** Enable an option and (recursively) its dependencies. Errors on an
    unknown option. *)

val disable : config -> string -> config
(** Disable an option and everything that depends on it. *)

val is_enabled : config -> string -> bool

val image_kb : config -> int
(** Kernel image size for this configuration. *)

val runtime_kb : config -> int
(** Runtime kernel memory for this configuration. *)

val debian_like : config
(** A distribution kernel with (nearly) everything enabled, for the
    paper's size comparison. *)

val boots : config -> platform:Kconfig_types.platform -> app:string -> bool
(** Does a kernel with this config boot the platform and pass the
    app's smoke test? *)

val prune :
  platform:Kconfig_types.platform ->
  app:string ->
  config ->
  config * int
(** The olddefconfig loop: for each enabled option, disable, rebuild,
    test; re-enable only if the test fails.
    Returns the pruned config and the number of rebuild+test
    iterations performed. *)
