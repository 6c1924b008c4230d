(** xl-style VM configuration files.

    A real parser for the format the toolstacks consume, e.g.:

    {v
    # a guest
    name = "daytime-1"
    kernel = "daytime"
    memory = 4
    vcpus = 1
    vif = ['bridge=xenbr0']
    disk = ['ramdisk,xvda,w']
    on_crash = "destroy"
    v}

    Values are strings, integers or lists of strings; [#] starts a
    comment. Unknown keys are preserved in [extra]. *)

type t = {
  name : string;
  kernel : string;  (** image name, resolved against {!Lightvm_guest.Image} *)
  memory_mb : float;
  vcpus : int;
  vifs : string list;  (** one detail string per network device *)
  disks : string list;  (** one spec per block device *)
  on_crash : string;
  extra : (string * string) list;
}

val parse : string -> (t, string) result
(** Parse a whole config file; the error carries a line number. *)

val to_string : t -> string
(** Render back to the file format ([parse] of the result
    round-trips). *)

val devices : t -> Lightvm_guest.Device.config list
(** vifs then disks, devids numbered from 0 per kind. *)

val image : t -> Lightvm_guest.Image.t option
(** Look up [kernel] among the known images. *)

val make :
  ?memory_mb:float ->
  ?vcpus:int ->
  ?vifs:string list ->
  ?disks:string list ->
  name:string ->
  kernel:string ->
  unit ->
  t

val for_image :
  ?nics:int -> ?disks:int -> name:string -> Lightvm_guest.Image.t -> t
(** Convenience: a config sized from an image's requirements (memory =
    the image's footprint, one vif by default). *)
