(** VM image descriptions: the guests the paper measures.

    An image bundles the static facts that drive the simulation — disk
    size, loadable kernel size (the Figure 2 linear term), runtime
    memory footprint, guest-side boot work, and idle background load
    (which separates Debian from Tinyx from unikernels in Figures 11
    and 15). *)

type kind =
  | Unikernel of string  (** app linked against MiniOS, e.g. "daytime" *)
  | Tinyx of string option  (** Tinyx distribution, optional app *)
  | Debian

type t = {
  name : string;
  kind : kind;
  disk_mb : float;  (** on-disk image size *)
  kernel_mb : float;  (** what the domain builder loads into memory *)
  mem_mb : float;  (** runtime memory footprint *)
  kernel_init_work : float;
  (** guest CPU seconds before device bring-up *)
  app_init_work : float;  (** guest CPU seconds after device bring-up *)
  idle_tick_period : float;
  (** background-task period when idle; [infinity] = truly idle *)
  idle_tick_work : float;  (** CPU per background tick *)
}

val boot_work : t -> float
(** [kernel_init_work +. app_init_work]. *)

val idle_load : t -> float
(** Long-run fraction of a reference core consumed when idle. *)

val with_inflated_image : t -> extra_mb:float -> t
(** Pad the kernel image with binary objects, as the paper does for
    Figure 2. Boot work is unchanged; only load time grows. *)

(** The guests of the evaluation, calibrated to Sections 3 and 6. *)

val noop_unikernel : t
(** MiniOS with no app and no devices: the 2.3 ms boot record holder. *)

val daytime : t
(** The 50-LoC daytime TCP server over MiniOS + lwip: 480 KB image,
    3.6 MB RAM. *)

val minipython : t
(** Micropython unikernel: ~1 MB image, 8 MB RAM. *)

val clickos_firewall : t
(** ClickOS running a firewall configuration: 1.7 MB image, 8 MB RAM. *)

val tinyx : t
(** Tinyx with no app: 9.5 MB image, ~30 MB RAM, ~180 ms boot. *)

val tinyx_micropython : t

val debian : t
(** Minimal Debian jessie: 1.1 GB disk, 111 MB RAM, 1.5 s boot, and a
    fleet of idle services. *)

val all : t list

val find : string -> t option
(** Look up any of the above by [name]. *)
