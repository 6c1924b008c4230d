(* Lifecycle helpers shared by test files: a guest brought up through
   the Vmm API, failing the test on any structured error. *)

module Vmm = Lightvm_cluster.Vmm

let ok what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (Vmm.error_to_string e)

(* Create a VM from [image] and block until it is up; its domid. *)
let boot host image =
  let vi = ok "vm_create" (Vmm.vm_create host (Vmm.vm_request image)) in
  ok "vm_boot" (Vmm.vm_boot host ~domid:vi.Vmm.vi_domid);
  vi.Vmm.vi_domid

let delete host ~domid = ok "vm_delete" (Vmm.vm_delete host ~domid)
