(* Versioned serializer for quiesced simulation state.

   An image is the Marshal encoding (with [Closures]) of one value —
   typically [(Engine.saved, model roots)] — so every bit of sharing
   between heap thunks and the model objects they close over is
   preserved: a thawed heap wakes up pointing at the thawed model, not
   at a second copy. Closure marshalling ties the bytes to the exact
   producing binary, and [Marshal] trusts its input completely: a
   corrupted closure image can crash the process instead of raising.
   So a file is read without [Marshal] until it is proven intact — a
   fixed-layout header is checked field by field, and the payload is
   unmarshalled only after its digest matches the one recorded at save
   time. *)

type error =
  | Not_quiesced of string
  | Bad_magic
  | Version_mismatch of { found : int; expected : int }
  | Binary_mismatch
  | Config_mismatch of { found : string; expected : string }
  | Io_error of string

let error_to_string = function
  | Not_quiesced msg ->
      "simulation is not quiesced (unmarshalable state in the image): " ^ msg
  | Bad_magic -> "not a lightvm snapshot (bad magic)"
  | Version_mismatch { found; expected } ->
      Printf.sprintf "snapshot format version %d, this binary expects %d"
        found expected
  | Binary_mismatch ->
      "snapshot was produced by a different binary (closure images are \
       only valid in the executable that wrote them)"
  | Config_mismatch { found; expected } ->
      Printf.sprintf "snapshot config mismatch: file has %S, expected %S"
        found expected
  | Io_error msg -> "snapshot i/o error: " ^ msg

(* The trailing byte doubles as a container version, distinct from
   [format_version] which covers the header layout and payload shape. *)
let magic = "LVMSNAP\x01"

let format_version = 2

(* After [magic], integers unsigned 32-bit big-endian:

     version          4 bytes
     binary digest   16 bytes  of the producing executable
     payload digest  16 bytes
     config length    4 bytes  at most [max_config]
     config           the producing config, in the clear
     header digest   16 bytes  of every header byte after [magic]

   then the payload, to the end of the file. The version comes first
   so a file of another version is reported as such, whatever layout
   follows it. *)
let max_config = 65536

let self_digest = lazy (Digest.file Sys.executable_name)

let freeze payload =
  match Marshal.to_string payload [ Marshal.Closures ] with
  | bytes -> Ok bytes
  | exception Invalid_argument msg -> Error (Not_quiesced msg)
  | exception Failure msg -> Error (Not_quiesced msg)

let thaw bytes =
  match Marshal.from_string bytes 0 with
  | v -> Ok v
  | exception Invalid_argument msg -> Error (Io_error msg)
  | exception Failure msg -> Error (Io_error msg)

let u32 n =
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.to_string b

let u32_at s i = Int32.to_int (String.get_int32_be s i) land 0xffff_ffff

let save_bytes ~path ~config bytes =
  if String.length config > max_config then
    Error (Io_error "config longer than the header allows")
  else
    let header =
      String.concat ""
        [
          u32 format_version;
          Lazy.force self_digest;
          Digest.string bytes;
          u32 (String.length config);
          config;
        ]
    in
    try
      let oc = open_out_bin path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          output_string oc magic;
          output_string oc header;
          output_string oc (Digest.string header);
          output_string oc bytes);
      Ok ()
    with Sys_error msg -> Error (Io_error msg)

let save ~path ~config payload =
  match freeze payload with
  | Error err -> Error err
  | Ok bytes -> save_bytes ~path ~config bytes

(* [(config, payload digest)] of a header read field by field. *)
let read_header ic =
  let ( let* ) = Result.bind in
  let read ~none n =
    match really_input_string ic n with
    | s -> Ok s
    | exception End_of_file -> Error none
  in
  let corrupt = Io_error "truncated or corrupt header" in
  let* m = read ~none:Bad_magic (String.length magic) in
  if not (String.equal m magic) then Error Bad_magic
  else
    let* version = read ~none:corrupt 4 in
    let found = u32_at version 0 in
    if found <> format_version then
      Error (Version_mismatch { found; expected = format_version })
    else
      let* digests = read ~none:corrupt 36 in
      let len = u32_at digests 32 in
      if len > max_config then Error corrupt
      else
        let* config = read ~none:corrupt len in
        let* stored = read ~none:corrupt 16 in
        if
          not
            (Digest.equal stored
               (Digest.string (String.concat "" [ version; digests; config ])))
        then Error (Io_error "corrupt header (header digest)")
        else if
          not (Digest.equal (String.sub digests 0 16) (Lazy.force self_digest))
        then Error Binary_mismatch
        else Ok (config, String.sub digests 16 16)

let with_in path f =
  match open_in_bin path with
  | exception Sys_error msg -> Error (Io_error msg)
  | ic -> Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> f ic)

let inspect ~path = with_in path (fun ic -> Result.map fst (read_header ic))

let load_bytes ?expect_config ~path () =
  with_in path (fun ic ->
      match read_header ic with
      | Error err -> Error err
      | Ok (config, payload_digest) -> (
          match expect_config with
          | Some c when not (String.equal c config) ->
              Error (Config_mismatch { found = config; expected = c })
          | _ -> (
              match In_channel.input_all ic with
              | exception Sys_error msg -> Error (Io_error msg)
              | bytes
                when not (Digest.equal (Digest.string bytes) payload_digest) ->
                  Error (Io_error "corrupt payload (digest mismatch)")
              | bytes -> Ok (config, bytes))))

let load ?expect_config ~path () =
  match load_bytes ?expect_config ~path () with
  | Error err -> Error err
  | Ok (config, bytes) -> Result.map (fun v -> (config, v)) (thaw bytes)
