type t = { server : Xs_server.t; domid : int }

let connect server ~domid = { server; domid }

let fail e = raise (Xs_error.Error e)

let unexpected () = fail Xs_error.EINVAL

let op t ?tx req = Xs_server.op t.server ~caller:t.domid ?tx req

let read t ?tx p =
  match op t ?tx (Xs_server.Read p) with
  | Xs_server.Ok_value v -> v
  | Xs_server.Err e -> fail e
  | _ -> unexpected ()

let read_opt t ?tx p =
  match op t ?tx (Xs_server.Read p) with
  | Xs_server.Ok_value v -> Some v
  | Xs_server.Err Xs_error.ENOENT -> None
  | Xs_server.Err e -> fail e
  | _ -> unexpected ()

let expect_unit = function
  | Xs_server.Ok_unit -> ()
  | Xs_server.Err e -> fail e
  | _ -> unexpected ()

let write t ?tx p v = expect_unit (op t ?tx (Xs_server.Write (p, v)))
let mkdir t ?tx p = expect_unit (op t ?tx (Xs_server.Mkdir p))
let rm t ?tx p = expect_unit (op t ?tx (Xs_server.Rm p))

let directory t ?tx p =
  match op t ?tx (Xs_server.Directory p) with
  | Xs_server.Ok_list entries -> entries
  | Xs_server.Err e -> fail e
  | _ -> unexpected ()

let set_perms t ?tx p perms =
  expect_unit (op t ?tx (Xs_server.Set_perms (p, perms)))

let watch t ~path ~token ~deliver =
  expect_unit (Xs_server.watch t.server ~caller:t.domid ~path ~token ~deliver)

let unwatch t ~path ~token =
  expect_unit (op t (Xs_server.Unwatch (path, token)))

let with_transaction t f =
  match
    Xs_server.transaction t.server ~caller:t.domid (fun txid ->
        f txid;
        Ok ())
  with
  | Ok () -> ()
  | Error e -> fail e

let get_domain_path t domid =
  match op t (Xs_server.Get_domain_path domid) with
  | Xs_server.Ok_path p -> p
  | Xs_server.Err e -> fail e
  | _ -> unexpected ()

let release t domid = expect_unit (op t (Xs_server.Release domid))

let write_many t ?tx pairs = List.iter (fun (p, v) -> write t ?tx p v) pairs

let scan_names t = Xs_server.scan_names t.server ~caller:t.domid
