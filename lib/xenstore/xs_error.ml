type t =
  | ENOENT
  | EACCES
  | EEXIST
  | EINVAL
  | EAGAIN
  | EQUOTA
  | ENOSPC
  | EBUSY
  | EISDIR

let to_string = function
  | ENOENT -> "ENOENT"
  | EACCES -> "EACCES"
  | EEXIST -> "EEXIST"
  | EINVAL -> "EINVAL"
  | EAGAIN -> "EAGAIN"
  | EQUOTA -> "EQUOTA"
  | ENOSPC -> "ENOSPC"
  | EBUSY -> "EBUSY"
  | EISDIR -> "EISDIR"

let pp fmt t = Format.pp_print_string fmt (to_string t)

exception Error of t
