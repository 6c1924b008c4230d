(** The XenStore binary wire protocol (xs_wire.h).

    Messages are a 16-byte little-endian header — operation, request id,
    transaction id, payload length — followed by a payload of
    NUL-separated strings. This codec is what a guest's xenbus ring
    carries; the simulation charges time per message, and the tests
    round-trip real byte buffers through it. *)

type op =
  | Debug
  | Directory
  | Read
  | Get_perms
  | Watch
  | Unwatch
  | Transaction_start
  | Transaction_end
  | Introduce
  | Release
  | Get_domain_path
  | Write
  | Mkdir
  | Rm
  | Set_perms
  | Watch_event
  | Error
  | Is_domain_introduced
  | Resume
  | Set_target

val op_to_int : op -> int
(** The numeric codes of the real protocol. *)

val op_of_int : int -> op option

type header = {
  op : op;
  req_id : int32;
  tx_id : int32;
  len : int;
}

exception Malformed of string

val pack : op -> req_id:int32 -> tx_id:int32 -> string list -> bytes
(** Payload strings are each NUL-terminated. Raises {!Malformed} when
    the payload would exceed 4096 bytes, as in the real protocol. *)

type scratch
(** A reusable pack buffer, for callers that consume each message
    before producing the next (as a xenbus ring slot does). *)

val scratch : unit -> scratch

val pack_into : scratch -> op -> req_id:int32 -> tx_id:int32 ->
  string list -> bytes
(** Like {!pack} but encodes into the scratch's buffer, growing it as
    needed, and returns that buffer without copying. The result may be
    longer than the message (the header's [len] bounds the payload) and
    is only valid until the next [pack_into] on the same scratch. *)

val unpack_header : bytes -> header
(** Reads the first 16 bytes. Raises {!Malformed} on short input or
    unknown operation. *)

val unpack : bytes -> header * string list
(** Full decode; splits the payload on NULs. *)
