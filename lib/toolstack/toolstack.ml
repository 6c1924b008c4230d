module Xs_server = Lightvm_xenstore.Xs_server
module Xs_client = Lightvm_xenstore.Xs_client
module Ctrl = Lightvm_guest.Ctrl

type t = Create.env

let make ~xen ~mode ?xs_profile ?(costs = Costs.default) () =
  let xs_server = Xs_server.create ?profile:xs_profile () in
  let xs = Xs_client.connect xs_server ~domid:0 in
  let ctrl = Ctrl.create () in
  let backend =
    Backend.create ~xen
      ~xs:(if mode.Mode.registry = Mode.Xenstore then Some xs else None)
      ~ctrl ~costs
  in
  { Create.xen; xs_server; xs; ctrl; backend; mode; costs; shells = ref 0 }

let env t = t
let mode t = t.Create.mode
let costs t = t.Create.costs
let xs_server t = t.Create.xs_server
