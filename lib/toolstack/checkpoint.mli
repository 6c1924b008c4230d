(** Save/restore (checkpointing), Section 6.2.

    Saving suspends the guest — via XenStore control nodes on the
    classic path, or via the sysctl pseudo-device's shared page and
    event channel under noxs — then dumps its memory to the ramdisk and
    tears the domain down. Restoring rebuilds the domain and devices,
    reads the dump back, and resumes the guest (device frontends
    reconnect, but the kernel does not reboot). *)

type saved

val saved_name : saved -> string

val saved_mem_mb : saved -> float

val save : Toolstack.t -> Create.created -> (saved, string) result
(** Blocks for the save duration; on [Ok] the domain is gone. [Error]
    when the suspend request is refused (a store write under an
    injected [xs.*] fault): nothing changed and the guest keeps
    running. *)

val restore : Toolstack.t -> saved -> (Create.created, string) result
(** Blocks until the toolstack hands off to the resumed guest. The
    domain is rebuilt through the normal creation pipeline. [Error] as
    {!Create.create} returns it (out of memory, refused store
    operation, injected fault); the partial domain is rolled back and
    the saved image remains valid for another attempt. *)

val suspend_for_transfer :
  Toolstack.t -> Create.created -> (saved, string) result
(** Migration helper: quiesce and detach the guest, leaving the memory
    image ready to stream (no ramdisk dump). On [Ok] the source domain
    is destroyed; [Error] as {!save}. *)

val resume_from_transfer :
  Toolstack.t -> saved -> (Create.created, string) result
(** Migration helper: finish an incoming migration on a host where the
    domain shell was pre-created (memory transfer is charged by the
    caller). [Error] as {!restore}. *)
