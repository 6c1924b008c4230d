(** Live(ish) migration, Section 5.1/6.2.

    chaos opens a TCP connection to the migration daemon on the remote
    host and sends the guest's configuration so the daemon pre-creates
    the domain and its devices; the source then suspends the guest and
    streams its memory; the destination resumes it. *)

type stats = {
  total : float;  (** wall-clock migration time *)
  precreate : float;  (** remote domain + device pre-creation *)
  suspend : float;  (** source-side quiesce + save *)
  transfer : float;  (** memory stream, including any retransfers *)
  resume : float;  (** destination-side restore + reconnect *)
}

val migrate :
  src:Toolstack.t ->
  dst:Toolstack.t ->
  Create.created ->
  (Create.created * stats, string) result
(** Returns the VM handle on the destination host. Both hosts should
    run the same toolstack mode.

    A corrupted stream is retransmitted in full up to 3 times (each
    adding one transfer's worth of virtual time plus a NACK round
    trip) before the migration is abandoned.

    [Error] in three cases. When the source refuses the suspend request
    (see {!Checkpoint.save}) nothing changed and the guest keeps
    running on the source. Past the suspend the source domain is
    already destroyed, so the guest is lost, the same failure mode as
    [xl migrate] dying mid-stream: when the memory stream stays
    corrupted (fault point [migrate.corrupt]) through every retransfer
    attempt, or when the destination cannot host the guest (out of
    memory, a refused store operation, an injected fault; the partial
    domain there is rolled back). The caller tells the two apart by
    whether the source domain still exists. *)
