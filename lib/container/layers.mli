(** Container images as stacks of content-addressed layers.

    Layers are shared: pulling two images with a common base stores the
    base once; running many containers from one image shares all its
    read-only layers and gives each container only a writable upper
    layer. *)

type layer = {
  digest : string;
  size_kb : int;
}

type image = {
  image_name : string;
  layers : layer list;  (** base first *)
}

type store

val create_store : unit -> store

val pull : store -> image -> int
(** Register an image; returns the KiB actually added (shared layers
    are free). *)

val micropython_image : image

val alpine_noop : image
