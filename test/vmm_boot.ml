(* Lifecycle helpers shared by test files: a guest brought up through
   the Vmm API, failing the test on any structured error, and the census
   of a host's guest domains. *)

module Vmm = Lightvm_cluster.Vmm
module Xen = Lightvm_hv.Xen
module Domain = Lightvm_hv.Domain

let ok what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (Vmm.error_to_string e)

(* Create a VM from [image] and block until it is up; its domid. *)
let boot host image =
  let vi = ok "vm_create" (Vmm.vm_create host (Vmm.vm_request image)) in
  ok "vm_boot" (Vmm.vm_boot host ~domid:vi.Vmm.vi_domid);
  vi.Vmm.vi_domid

let delete host ~domid = ok "vm_delete" (Vmm.vm_delete host ~domid)

(* The host's guest domains, in domid order: every domain but Dom0 and
   the split toolstack's pre-created shells. *)
let guest_domids host =
  List.filter_map
    (fun d ->
      let domid = Domain.domid d in
      let shell = String.starts_with ~prefix:"chaos-shell-" (Domain.name d) in
      if domid = 0 || shell then None else Some domid)
    (Xen.domains (Vmm.xen host))
