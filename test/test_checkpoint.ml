(* Checkpoint/restore and experiment prefix caching: a suffix run from
   a thawed image must render bit-identically to the unbroken
   simulation, across the jobs x partition matrix and under injected
   faults; one image must support any number of independent forks; and
   the on-disk format must refuse foreign or stale files with a
   structured error instead of deserializing garbage. *)

module E = Lightvm.Experiment
module Engine = Lightvm_sim.Engine
module Checkpoint = Lightvm_sim.Checkpoint
module Fault = Lightvm_sim.Fault
module Series = Lightvm_metrics.Series
module Table = Lightvm_metrics.Table

(* Exact (hex) floats, as in test_partition.ml: any numeric divergence
   must show in the digest. [p_prefix_seconds] is wall-clock time and
   deliberately NOT rendered — the digest is a pure function of the
   simulated output. *)
let add_labelled buf (l : E.labelled) =
  Buffer.add_string buf ("# " ^ l.E.label ^ "\n");
  List.iter
    (fun (x, y) -> Buffer.add_string buf (Printf.sprintf "%h\t%h\n" x y))
    (Series.points l.E.series)

let digest_rows rows =
  let buf = Buffer.create 4096 in
  List.iter (add_labelled buf) rows;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let digest_piece (p : E.piece) =
  let buf = Buffer.create 4096 in
  List.iter (add_labelled buf) p.E.p_series;
  List.iter
    (fun t -> Buffer.add_string buf (Format.asprintf "%a@." Table.pp t))
    p.E.p_tables;
  List.iter (fun n -> Buffer.add_string buf (n ^ "\n")) p.E.p_notes;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let parse_spec s =
  match Fault.parse_spec s with Ok s -> s | Error e -> failwith e

(* ------------------------------------------------------------------ *)
(* Scale: chained images (boot to 300, snapshot, extend to 700,
   snapshot) must render every count's curve exactly as one unbroken
   simulation does. *)

let test_scale_snapshot_equal () =
  E.prefix_cache_reset ();
  List.iter
    (fun (slug, counts) ->
      let _, unbroken = E.scale_mode_curves ~snapshot:false ~counts slug in
      let _, forked = E.scale_mode_curves ~snapshot:true ~counts slug in
      Alcotest.(check string)
        (slug ^ " snapshot = unbroken")
        (digest_rows unbroken) (digest_rows forked))
    [ ("chaos-xs", [ 300; 700 ]); ("xl", [ 200 ]); ("chaos-noxs", [ 400 ]) ]

(* ------------------------------------------------------------------ *)
(* Fleet: the partitioned row's snapshot point is the wave-1 barrier.
   Captured under any (partition, sim_jobs) config, the resumed second
   wave must match the unbroken two-wave run — and every cell of the
   matrix must agree with every other. *)

let test_fleet_snapshot_matrix () =
  E.prefix_cache_reset ();
  let count = 240 in
  let digest ~snapshot partition sim_jobs =
    let _, row = E.scale_fleet_row ~snapshot ~count ~partition ~sim_jobs () in
    digest_rows [ row ]
  in
  let reference = digest ~snapshot:false `Host 1 in
  List.iter
    (fun (partition, sim_jobs, name) ->
      Alcotest.(check string)
        ("unbroken " ^ name) reference
        (digest ~snapshot:false partition sim_jobs);
      Alcotest.(check string)
        ("snapshot " ^ name) reference
        (digest ~snapshot:true partition sim_jobs))
    [
      (`Host, 1, "host/j1"); (`Host, 8, "host/j8");
      (`None, 1, "none/j1"); (`None, 8, "none/j8");
    ]

(* ------------------------------------------------------------------ *)
(* Cluster drain under scaled migration faults: random (guests, seed,
   fault multiplier) triples, forked from the booted-cluster image vs
   simulated unbroken. *)

let drain_arb =
  QCheck.make
    ~print:(fun (n, seed, mult) ->
      Printf.sprintf "guests=%d seed=%Ld fault-scale=%g" n seed mult)
    QCheck.Gen.(
      triple (int_range 6 20)
        (map Int64.of_int (int_bound 10_000))
        (oneofl [ 0.5; 1.0; 2.0 ]))

let prop_drain_snapshot =
  QCheck.Test.make
    ~name:"drain from image = unbroken drain (scaled migrate.corrupt)"
    ~count:5 drain_arb (fun (guests, fault_seed, mult) ->
      E.prefix_cache_reset ();
      let spec = Fault.scale (parse_spec E.cluster_fault_spec) mult in
      let unbroken =
        E.cluster_drain_piece ~snapshot:false ~guests ~spec ~fault_seed ()
      in
      let forked =
        E.cluster_drain_piece ~snapshot:true ~guests ~spec ~fault_seed ()
      in
      String.equal (digest_piece unbroken) (digest_piece forked))

(* ------------------------------------------------------------------ *)
(* Reliability: cells forked from one warmed-host image vs unbroken,
   and — the fork-many contract — two different suffixes thawed from
   the SAME cached image must each match their unbroken twin: forks
   share no mutable state. *)

let test_reliability_snapshot_equal () =
  E.prefix_cache_reset ();
  let spec = parse_spec E.reliability_default_spec in
  List.iter
    (fun (slug, seed, level) ->
      (* No cache reset between iterations: chaos-xs at two seeds runs
         both suffixes from the image built on the first hit. *)
      let cell snapshot =
        E.reliability_cell_piece ~snapshot ~n:60 ~mode:slug ~spec ~seed
          ~level ()
      in
      Alcotest.(check string)
        (Printf.sprintf "%s seed=%Ld x%g" slug seed level)
        (digest_piece (cell false))
        (digest_piece (cell true)))
    [
      ("xl", 42L, 1.); ("chaos-xs", 42L, 2.); ("chaos-xs", 7L, 2.);
      ("chaos-noxs", 42L, 1.);
    ]

(* Restore-twice: the same suffix replayed from one image is
   reproducible (thaw makes a fresh copy each time, so the first replay
   cannot have consumed or mutated anything the second needs). *)
let test_restore_twice () =
  E.prefix_cache_reset ();
  let once () = digest_rows [ E.scale_fork_suffix ~n:150 ~extra:15 ] in
  let first = once () in
  Alcotest.(check string) "second fork identical" first (once ());
  Alcotest.(check string) "fork = unbroken"
    (digest_rows [ E.scale_cold_full ~n:150 ~extra:15 ])
    first

(* ------------------------------------------------------------------ *)
(* Format hygiene. The header is checked magic-first, then version,
   then integrity, then producing binary, then (on request) config —
   each failure surfaces as its own structured error. *)

let write_raw path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name

let magic = "LVMSNAP\x01"

(* Structurally identical to the module's private header record: a
   4-field tag-0 block, so [input_value] reads it back as one. *)
let raw_header ~version ~binary ~config =
  Marshal.to_string (version, binary, config, Digest.string config) []

let check_error name expected_sub = function
  | Ok _ -> Alcotest.fail (name ^ ": expected an error")
  | Error err ->
      let msg = Checkpoint.error_to_string err in
      if not (Astring_check.contains (String.lowercase_ascii msg) expected_sub)
      then
        Alcotest.fail
          (Printf.sprintf "%s: error %S does not mention %S" name msg
             expected_sub)

let test_save_load_roundtrip () =
  let path = tmp "lvm_test_roundtrip.lvmsnap" in
  let payload = (42, "state", [ 1.5; 2.5 ]) in
  (match Checkpoint.save ~path ~config:"unit:roundtrip" payload with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Checkpoint.error_to_string e));
  (match Checkpoint.inspect ~path with
  | Ok config -> Alcotest.(check string) "inspect config" "unit:roundtrip" config
  | Error e -> Alcotest.fail (Checkpoint.error_to_string e));
  match Checkpoint.load ~expect_config:"unit:roundtrip" ~path () with
  | Error e -> Alcotest.fail (Checkpoint.error_to_string e)
  | Ok (config, v) ->
      Alcotest.(check string) "stored config" "unit:roundtrip" config;
      Alcotest.(check bool) "payload round-trips" true (v = payload)

let test_header_mismatches () =
  let path = tmp "lvm_test_header.lvmsnap" in
  (* Not a snapshot at all. *)
  write_raw path "PNG\x89 definitely not a snapshot";
  check_error "garbage" "bad magic" (Checkpoint.inspect ~path);
  write_raw path "";
  check_error "empty" "bad magic" (Checkpoint.inspect ~path);
  (* Right magic, wrong format version. *)
  write_raw path
    (magic
    ^ raw_header
        ~version:(Checkpoint.format_version + 1)
        ~binary:(Digest.string "whatever") ~config:"scale:chaos-xs@100");
  check_error "future version" "format version" (Checkpoint.inspect ~path);
  (* Right version, foreign producing binary. *)
  write_raw path
    (magic
    ^ raw_header ~version:Checkpoint.format_version
        ~binary:(Digest.string "some other executable")
        ~config:"scale:chaos-xs@100");
  check_error "foreign binary" "different binary" (Checkpoint.inspect ~path);
  (* Valid file, caller expects a different config. *)
  (match Checkpoint.save ~path ~config:"unit:a" (1, 2) with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Checkpoint.error_to_string e));
  check_error "config mismatch" "config mismatch"
    (Checkpoint.load ~expect_config:"unit:b" ~path () :
      (string * (int * int), Checkpoint.error) result);
  (* Flipping a byte of the stored config breaks the header's config
     digest. The config is in the clear, so find it in the bytes. *)
  let valid = In_channel.with_open_bin path In_channel.input_all in
  let corrupt = Bytes.of_string valid in
  let i =
    let rec find i =
      if i + 6 > String.length valid then
        Alcotest.fail "stored config not found in file"
      else if String.equal (String.sub valid i 6) "unit:a" then i
      else find (i + 1)
    in
    find 0
  in
  Bytes.set corrupt (i + 5) 'z';
  write_raw path (Bytes.to_string corrupt);
  (match Checkpoint.inspect ~path with
  | Ok _ -> Alcotest.fail "tampered header accepted"
  | Error _ -> ());
  Sys.remove path

let test_not_quiesced () =
  (* A process asleep across the capture point parks an effect
     continuation in the heap: not a legal checkpoint. *)
  let _, saved =
    Engine.run_capture ~until:1.0 (fun () ->
        Engine.spawn ~name:"sleeper" (fun () -> Engine.sleep 10.))
  in
  match Checkpoint.freeze saved with
  | Error (Checkpoint.Not_quiesced _) -> ()
  | Error e ->
      Alcotest.fail ("expected Not_quiesced, got " ^ Checkpoint.error_to_string e)
  | Ok _ -> Alcotest.fail "parked continuation marshalled"

(* ------------------------------------------------------------------ *)
(* The CLI surface: snapshot_to_file / resume_from_file. A resume from
   disk must equal the in-process fork (and hence the unbroken run);
   unknown keys are refused. *)

let test_snapshot_file_roundtrip () =
  E.prefix_cache_reset ();
  let path = tmp "lvm_test_scale.lvmsnap" in
  (match
     E.snapshot_to_file ~n:150 ~key:"scale:chaos-xs@150" ~path ()
   with
  | Ok _description -> ()
  | Error msg -> Alcotest.fail msg);
  let resumed () =
    match E.resume_from_file ~n:15 ~path () with
    | Ok r -> digest_rows r.E.series
    | Error msg -> Alcotest.fail msg
  in
  let first = resumed () in
  Alcotest.(check string) "resume twice identical" first (resumed ());
  Alcotest.(check string) "resume = in-process fork"
    (digest_rows [ E.scale_fork_suffix ~n:150 ~extra:15 ])
    first

(* Every listed prefix key round-trips through a file: a family that
   can be snapshotted but not resumed fails here. *)
let test_every_key_resumes () =
  E.prefix_cache_reset ();
  let path = tmp "lvm_test_every_key.lvmsnap" in
  List.iter
    (fun (p : E.prefix) ->
      let key = p.E.prefix_key in
      (match E.snapshot_to_file ~n:24 ~sim_jobs:1 ~key ~path () with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "snapshot %s: %s" key msg);
      let resumed () =
        match E.resume_from_file ~n:24 ~path () with
        | Ok r -> digest_rows r.E.series ^ String.concat "\n" r.E.notes
        | Error msg -> Alcotest.failf "resume %s: %s" key msg
      in
      let first = resumed () in
      Alcotest.(check string) (key ^ " resumes identically") first (resumed ()))
    (E.prefixes ~n:24 ~sim_jobs:1 ());
  Sys.remove path

(* A bad -n is a structured error, not a crash or a silent no-op. *)
let test_resume_bad_n () =
  E.prefix_cache_reset ();
  let path = tmp "lvm_test_bad_n.lvmsnap" in
  List.iter
    (fun key ->
      (match E.snapshot_to_file ~n:24 ~key ~path () with
      | Ok _ -> ()
      | Error msg -> Alcotest.fail msg);
      List.iter
        (fun n ->
          match E.resume_from_file ~n ~path () with
          | Ok _ -> Alcotest.failf "%s: -n %d accepted" key n
          | Error _ -> ())
        [ 0; -1; -5 ])
    [ "scale:chaos-xs@24"; "reliability:xl" ];
  Sys.remove path

(* The resumed serverless suffix is the in-process cell's: --faults
   reaches it. *)
let test_serverless_resume_faults () =
  E.prefix_cache_reset ();
  let path = tmp "lvm_test_serverless.lvmsnap" in
  (match E.snapshot_to_file ~key:"serverless:warm@4" ~path () with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg);
  let notes ?spec () =
    match E.resume_from_file ~n:100 ?spec ~path () with
    | Ok r -> String.concat "\n" r.E.notes
    | Error msg -> Alcotest.fail msg
  in
  let plain = notes () in
  Alcotest.(check bool) "faults change the resumed cell" false
    (String.equal plain (notes ~spec:(parse_spec "create.phase2:0.5") ()));
  Sys.remove path

let test_snapshot_unknown_key () =
  match
    E.snapshot_to_file ~n:100 ~key:"scale:chaos-xs@99999"
      ~path:(tmp "lvm_test_unknown.lvmsnap") ()
  with
  | Ok _ -> Alcotest.fail "unknown prefix key accepted"
  | Error _ -> ()

let suites =
  [
    ( "checkpoint.prefix",
      [
        Alcotest.test_case "scale: snapshot = unbroken" `Slow
          test_scale_snapshot_equal;
        Alcotest.test_case "fleet: matrix snapshot = unbroken" `Slow
          test_fleet_snapshot_matrix;
        QCheck_alcotest.to_alcotest prop_drain_snapshot;
        Alcotest.test_case "reliability: forks = unbroken twins" `Slow
          test_reliability_snapshot_equal;
        Alcotest.test_case "restore twice from one image" `Quick
          test_restore_twice;
      ] );
    ( "checkpoint.format",
      [
        Alcotest.test_case "save/load round trip" `Quick
          test_save_load_roundtrip;
        Alcotest.test_case "header mismatches refused" `Quick
          test_header_mismatches;
        Alcotest.test_case "unquiesced state refused" `Quick
          test_not_quiesced;
        Alcotest.test_case "snapshot/resume via file" `Slow
          test_snapshot_file_roundtrip;
        Alcotest.test_case "unknown prefix key refused" `Quick
          test_snapshot_unknown_key;
        Alcotest.test_case "every listed key resumes" `Slow
          test_every_key_resumes;
        Alcotest.test_case "bad -n refused on resume" `Quick
          test_resume_bad_n;
        Alcotest.test_case "serverless resume honours faults" `Quick
          test_serverless_resume_faults;
      ] );
  ]
