(** Versioned serializer for quiesced simulation state.

    An image is the [Marshal] encoding (with closures) of one value —
    by convention [(Engine.saved, model roots)] — so the sharing
    between heap thunks and the model objects they close over is
    preserved: a thawed heap wakes up pointing at the thawed model.
    Marshalling is deterministic, and {!Engine.resume} replays a thawed
    image bit-identically to the unbroken run, which is what lets a
    suffix resumed from a snapshot file render exactly as the
    simulation that never stopped.

    Quiesce points: a simulation can be frozen only when its heaps hold
    plain event thunks. A parked effect continuation (a process blocked
    in [sleep]/[Ivar.read] with its wakeup pending, a warm-pool refill
    daemon, a guest with a finite idle tick period) is a custom block
    [Marshal] cannot encode — {!freeze} reports it as {!Not_quiesced}
    instead of producing a broken image.

    Closure images are only meaningful inside the executable that
    produced them, and [Marshal] does not validate what it reads. {!save}
    writes a magic string and a fixed-layout header — the
    {!format_version}, the producing executable's digest, the payload's
    digest and the producing config, closed by a digest of the header
    itself — and {!load_bytes} reads that header without [Marshal] and
    checks the payload digest before handing the bytes on, so a
    foreign, stale, truncated or corrupted file is refused with a
    structured {!error} instead of being deserialized. *)

type error =
  | Not_quiesced of string
      (** The run holds unmarshalable state (typically a parked effect
          continuation): not a legal checkpoint. *)
  | Bad_magic  (** Not a lightvm snapshot file. *)
  | Version_mismatch of { found : int; expected : int }
      (** Snapshot written by an incompatible format version. *)
  | Binary_mismatch
      (** Snapshot written by a different executable build. *)
  | Config_mismatch of { found : string; expected : string }
      (** Snapshot's producing config differs from the expected one. *)
  | Io_error of string
      (** File-system failure, or a truncated or corrupted header or
          payload. *)

val error_to_string : error -> string

val format_version : int
(** Current on-disk format version; bumped whenever the header layout
    or payload shape changes. *)

val freeze : 'a -> (string, error) result
(** Marshal a payload (closures included) to bytes in memory. *)

val thaw : string -> ('a, error) result
(** Inverse of {!freeze}. As with [Marshal], neither the bytes nor the
    result type are checked: only thaw bytes produced by this process's
    own {!freeze}, or returned by {!load_bytes}, at the type they were
    frozen at. *)

val save : path:string -> config:string -> 'a -> (unit, error) result
(** Freeze and write to [path] with the versioned header. [config]
    describes the producing configuration (family, counts, seeds …) and
    is stored in the clear, covered by the header digest. *)

val save_bytes : path:string -> config:string -> string -> (unit, error) result
(** {!save} for an already-{!freeze}d image, written without
    re-marshalling. *)

val load_bytes :
  ?expect_config:string -> path:string -> unit -> (string * string, error) result
(** {!load} without the final {!thaw}: validates the header and the
    payload digest and returns [(config, frozen bytes)]. The caller
    thaws at the type the [config] key implies. *)

val inspect : path:string -> (string, error) result
(** Validate a snapshot's header (magic, version, header digest,
    binary digest) and return its producing config without reading the
    payload. *)

val load : ?expect_config:string -> path:string -> unit -> (string * 'a, error) result
(** Read back a {!save}d image: {!load_bytes}, then {!thaw}. With
    [expect_config], additionally refuses a snapshot whose stored
    config differs ({!Config_mismatch}). Returns the stored config
    alongside the payload. *)
