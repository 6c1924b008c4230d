(* Checkpoint/restore: a family suffix run from a frozen image must
   render bit-identically to the same suffix run unbroken, for every
   listed image across the jobs x partition matrix and under injected
   faults; one image must support any number of independent runs; and
   the on-disk format must refuse foreign, stale or corrupted files with
   a structured error instead of deserializing garbage. *)

module E = Lightvm.Experiment
module Engine = Lightvm_sim.Engine
module Checkpoint = Lightvm_sim.Checkpoint
module Fault = Lightvm_sim.Fault
module Manifest = Digest_manifest
module Vmm = Lightvm_cluster.Vmm
module Mode = Lightvm_toolstack.Mode
module Image = Lightvm_guest.Image

(* Exact (hex) floats, as in the result manifest: any numeric
   divergence must show in the digest. *)
let render r = Manifest.digest (Manifest.render r)

let parse_spec s =
  match Fault.parse_spec s with Ok s -> s | Error e -> failwith e

let prefix ?n key =
  match
    List.find_opt
      (fun (p : E.prefix) -> String.equal p.E.prefix_key key)
      (E.prefixes (Plan_run.args ?n ()))
  with
  | Some p -> p
  | None -> Alcotest.failf "no prefix %s" key

let ok key = function
  | Ok r -> render r
  | Error msg -> Alcotest.failf "%s: %s" key msg

let write_raw path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let read_raw path = In_channel.with_open_bin path In_channel.input_all

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name

(* ------------------------------------------------------------------ *)
(* Suffixes from an image = unbroken suffixes. *)

(* Every listed key, captured under each (partition, sim_jobs) config:
   snapshot to a file, resume it twice with the CLI's default flags,
   and compare against the same suffix run unbroken and against the
   key's line in test/digests.txt. A family that can be snapshotted but
   not resumed, or whose image diverges from its unbroken twin, fails
   here. Every config lists the same keys in the same order; the
   single-heap capture's fleet keys differ only in their partition tag,
   and their renders must match the partitioned capture's lines. *)
let test_every_key_resumes () =
  let path = tmp "lvm_test_every_key.lvmsnap" in
  let manifest = Manifest.load () in
  let lines = E.prefixes (Plan_run.args ~n:Manifest.resume_n ()) in
  List.iter
    (fun (partition, sim_jobs, cfg) ->
      List.iter2
        (fun (line : E.prefix) (p : E.prefix) ->
          let key = p.E.prefix_key in
          let name = Printf.sprintf "%s (%s)" key cfg in
          (match
             E.snapshot_to_file
               (Plan_run.args ~n:Manifest.resume_n ~partition ~sim_jobs ())
               ~key ~path
           with
          | Ok _ -> ()
          | Error msg -> Alcotest.failf "snapshot %s: %s" name msg);
          let resumed () =
            ok name (E.resume_from_file E.default_args ~path)
          in
          let first = resumed () in
          Alcotest.(check string) (name ^ " resumes identically") first
            (resumed ());
          Alcotest.(check string)
            (name ^ " resume = unbroken")
            (ok name (p.E.prefix_run E.default_args `Unbroken))
            first;
          let line_key = Manifest.resume_key line.E.prefix_key in
          match List.assoc_opt line_key manifest with
          | None -> Alcotest.failf "test/digests.txt has no line %s" line_key
          | Some expected ->
              Alcotest.(check string)
                (Printf.sprintf "%s = test/digests.txt line %s" name line_key)
                expected first)
        lines
        (E.prefixes
           (Plan_run.args ~n:Manifest.resume_n ~partition ~sim_jobs ())))
    [ (`Host, 1, "host/j1"); (`Host, 4, "host/j4"); (`None, 1, "none/j1") ];
  Sys.remove path

(* Cluster drain under scaled migration faults: random (guests, seed,
   fault multiplier) triples, from the booted-cluster image vs
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
      let spec = Fault.scale (parse_spec E.cluster_fault_spec) mult in
      let key = Printf.sprintf "cluster:drain@%d" guests in
      let p = prefix ~n:guests key in
      let run origin =
        ok key (p.E.prefix_run (Plan_run.args ~spec ~fault_seed ()) origin)
      in
      String.equal (run `Unbroken) (run (`Image (p.E.prefix_build ()))))

(* The fork-many contract: different suffixes thawed from the SAME
   image bytes must each match their unbroken twin — each thaw is a
   fresh copy, so runs share no mutable state. *)
let test_reliability_snapshot_equal () =
  let spec = parse_spec E.reliability_default_spec in
  List.iter
    (fun (slug, cells) ->
      let key = "reliability:" ^ slug in
      let p = prefix key in
      let image = p.E.prefix_build () in
      List.iter
        (fun (seed, level) ->
          let spec = Fault.scale spec level in
          let run origin =
            ok key
              (p.E.prefix_run
                 (Plan_run.args ~n:60 ~spec ~fault_seed:seed ())
                 origin)
          in
          Alcotest.(check string)
            (Printf.sprintf "%s seed=%Ld x%g" slug seed level)
            (run `Unbroken)
            (run (`Image image)))
        cells)
    [
      ("xl", [ (42L, 1.) ]);
      ("chaos-xs", [ (42L, 2.); (7L, 2.) ]);
      ("chaos-noxs", [ (42L, 1.) ]);
    ]

(* Restore-twice: the same suffix replayed from one image is
   reproducible (thaw makes a fresh copy each time, so the first replay
   cannot have consumed or mutated anything the second needs). *)
let test_restore_twice () =
  let p = prefix ~n:150 "scale:chaos-xs@150" in
  let image = p.E.prefix_build () in
  let once () =
    ok "scale" (p.E.prefix_run (Plan_run.args ~n:15 ()) (`Image image))
  in
  let first = once () in
  Alcotest.(check string) "second run identical" first (once ());
  Alcotest.(check string) "image = unbroken"
    (ok "scale" (p.E.prefix_run (Plan_run.args ~n:15 ()) `Unbroken))
    first

(* A job that starts from a family's image runs the family's suffix
   with the args resume passes. Under a fault seed other than the
   default, each such plan job renders as its prefix's unbroken run and
   as its run from the image's bytes. *)
let test_image_jobs_are_suffixes () =
  List.iter
    (fun (id, job, key) ->
      let args = Plan_run.args ~n:24 ~fault_seed:7L () in
      let plan = Plan_run.plan ~n:24 ~fault_seed:7L id in
      let piece = (List.assoc job plan.E.plan_jobs) () in
      let p = prefix ~n:24 key in
      let job_render =
        render
          {
            E.name = "resume";
            figure = "snapshot";
            series = piece.E.p_series;
            tables = piece.E.p_tables;
            notes = piece.E.p_notes;
          }
      in
      Alcotest.(check string) (job ^ " = unbroken suffix") job_render
        (ok key (p.E.prefix_run args `Unbroken));
      Alcotest.(check string) (job ^ " = suffix from the image") job_render
        (ok key (p.E.prefix_run args (`Image (p.E.prefix_build ())))))
    [
      ("cluster", "cluster/drain", "cluster:drain@24");
      ("cluster-scale", "cluster-scale/drain", "cluster-scale:drain@24");
      ("serverless-day", "serverless-day/fleet", "serverless-day:host@4");
    ]

(* ------------------------------------------------------------------ *)
(* Format hygiene. The header is checked magic-first, then version,
   then header integrity, then producing binary, then (on request)
   config; the payload digest before any unmarshalling. Each failure
   surfaces as its own structured error. *)

let magic = "LVMSNAP\x01"

let u32 n =
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.to_string b

(* The module's fixed-layout header (lib/sim/checkpoint.ml), forged by
   hand: version, binary digest, payload digest, config length, config,
   then the digest of those fields. *)
let raw_header ~version ~binary ~config =
  let fields =
    String.concat ""
      [
        u32 version; binary; Digest.string ""; u32 (String.length config);
        config;
      ]
  in
  magic ^ fields ^ Digest.string fields

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
    (raw_header
       ~version:(Checkpoint.format_version + 1)
       ~binary:(Digest.string "whatever") ~config:"scale:chaos-xs@100");
  check_error "future version" "format version" (Checkpoint.inspect ~path);
  (* Right version, foreign producing binary. *)
  write_raw path
    (raw_header ~version:Checkpoint.format_version
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
  (* Flipping a byte of the stored config breaks the header digest. The
     config is in the clear, so find it in the bytes. *)
  let valid = read_raw path in
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
  check_error "tampered config" "header digest" (Checkpoint.inspect ~path);
  (* A config length beyond the file is a truncated header, not an
     allocation of whatever the bytes say. *)
  write_raw path (String.sub valid 0 (String.length magic + 40));
  check_error "truncated header" "corrupt header" (Checkpoint.inspect ~path);
  Sys.remove path

(* Every single-byte flip in the payload region must be caught by the
   payload digest before [Marshal] sees the bytes — a closure image
   unmarshalled from corrupted bytes can crash the process. The sweep
   covers every byte of a small closure payload through the module, and
   40 spread positions of a real experiment image through the CLI's
   resume path. *)
let test_payload_flips_refused () =
  let path = tmp "lvm_test_flip.lvmsnap" in
  let flip_all ~start valid refused =
    for i = start to String.length valid - 1 do
      let b = Bytes.of_string valid in
      Bytes.set b i (Char.chr (Char.code valid.[i] lxor (1 lsl (i mod 8))));
      write_raw path (Bytes.to_string b);
      if not (refused ()) then Alcotest.failf "payload flip at %d accepted" i
    done
  in
  let payload = (List.init 20 string_of_int, fun x -> x + 1) in
  (match Checkpoint.save ~path ~config:"unit:flip" payload with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Checkpoint.error_to_string e));
  let valid = read_raw path in
  let frozen =
    match Checkpoint.freeze payload with
    | Ok b -> b
    | Error e -> Alcotest.fail (Checkpoint.error_to_string e)
  in
  flip_all
    ~start:(String.length valid - String.length frozen)
    valid
    (fun () -> Result.is_error (Checkpoint.load_bytes ~path ()));
  (match
     E.snapshot_to_file (Plan_run.args ~n:24 ()) ~key:"scale:chaos-xs@24" ~path
   with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg);
  let image = read_raw path in
  (* The payload is the file's own: a second build of the same key may
     marshal to a different length (hash-table seeds, for one). *)
  let frozen =
    match Checkpoint.load_bytes ~path () with
    | Ok (_, bytes) -> bytes
    | Error e -> Alcotest.fail (Checkpoint.error_to_string e)
  in
  let start = String.length image - String.length frozen in
  let step = max 1 (String.length frozen / 40) in
  for k = 0 to 39 do
    let i = start + min (String.length frozen - 1) (k * step) in
    let b = Bytes.of_string image in
    Bytes.set b i (Char.chr (Char.code image.[i] lxor 0x55));
    write_raw path (Bytes.to_string b);
    match E.resume_from_file E.default_args ~path with
    | Ok _ ->
        Alcotest.failf "image flip at payload byte %d accepted" (i - start)
    | Error msg ->
        if not (Astring_check.contains msg "payload") then
          Alcotest.failf "flip at %d: unexpected error %S" (i - start) msg
  done;
  Sys.remove path

let test_not_quiesced () =
  (* A process asleep across the capture point parks an effect
     continuation in the heap: not a legal checkpoint. *)
  let _, saved =
    Engine.run_capture (fun () ->
        Engine.spawn ~name:"sleeper" (fun () -> Engine.sleep 10.);
        Engine.sleep 1.0;
        Engine.stop ())
  in
  match Checkpoint.freeze saved with
  | Error (Checkpoint.Not_quiesced _) -> ()
  | Error e ->
      Alcotest.fail ("expected Not_quiesced, got " ^ Checkpoint.error_to_string e)
  | Ok _ -> Alcotest.fail "parked continuation marshalled"

(* The number of objects a Marshal image holds, read from its header
   (the runtime's intext.h): a small header, magic 0x8495A6BE, holds it
   as a 32-bit word at byte 8, and a big one, magic 0x8495A6BF, as a
   64-bit word at byte 16. *)
let marshal_objects image =
  match String.get_int32_be image 0 with
  | 0x8495A6BEl -> Int32.to_int (String.get_int32_be image 8) land 0xffff_ffff
  | 0x8495A6BFl -> Int64.to_int (String.get_int64_be image 16)
  | _ -> Alcotest.fail "not a Marshal image"

(* A chaos [XS] host frozen with [n] daytime guests created and booted. *)
let host_image n =
  let host = ref None in
  let _, saved =
    Engine.run_capture (fun () ->
        let h = Vmm.create ~mode:Mode.chaos_xs () in
        for _ = 1 to n do
          ignore (Vmm_boot.boot h Image.daytime)
        done;
        host := Some h)
  in
  match Checkpoint.freeze (saved, Option.get !host) with
  | Ok image -> image
  | Error e -> Alcotest.fail (Checkpoint.error_to_string e)

(* OCaml 5.1's marshaller sizes its table of shared objects by the
   image's object count, and doubles it past 2/3 * 2^21 = 1,398,101
   objects. The benchmark's create-dense image of 10,000 guests holds
   fewer, but not many fewer: a host representation that kept one more
   heap block per domain (a mutable owned-count cell per domid) pushed
   it from 1,390,209 objects to 1,400,210, and that run's peak RSS from
   182.8 to 246.7 MB. So the objects each added guest brings may not
   grow past this tree's reading, 118.14 (owned counts kept in a map
   with one node per owning domid read 131.00; paths that each held
   their segment list and string, 130.14; event channels and grants in
   tables keyed by boxed pairs, 126.14). At 118.14 the create-dense
   image holds 1,261,555 objects. *)
let test_objects_per_guest () =
  let objects n = marshal_objects (host_image n) in
  let added = objects 300 - objects 100 in
  if added > 23_628 then
    Alcotest.failf "%.2f objects per added guest, ceiling 118.14"
      (float_of_int added /. 200.)

(* ------------------------------------------------------------------ *)
(* The CLI surface: snapshot_to_file / resume_from_file. *)

(* A resume from disk with an explicit -n equals the same suffix run
   unbroken: -n reaches the suffix on both paths. *)
let test_snapshot_file_roundtrip () =
  let path = tmp "lvm_test_scale.lvmsnap" in
  (match
     E.snapshot_to_file (Plan_run.args ~n:150 ()) ~key:"scale:chaos-xs@150"
       ~path
   with
  | Ok _description -> ()
  | Error msg -> Alcotest.fail msg);
  let resumed () =
    ok "resume" (E.resume_from_file (Plan_run.args ~n:15 ()) ~path)
  in
  let first = resumed () in
  Alcotest.(check string) "resume twice identical" first (resumed ());
  let p = prefix ~n:150 "scale:chaos-xs@150" in
  Alcotest.(check string) "resume = unbroken"
    (ok "unbroken" (p.E.prefix_run (Plan_run.args ~n:15 ()) `Unbroken))
    first;
  Sys.remove path

(* A bad -n is a structured error, not a crash or a silent no-op. *)
let test_resume_bad_n () =
  let path = tmp "lvm_test_bad_n.lvmsnap" in
  List.iter
    (fun key ->
      (match E.snapshot_to_file (Plan_run.args ~n:24 ()) ~key ~path with
      | Ok _ -> ()
      | Error msg -> Alcotest.fail msg);
      List.iter
        (fun n ->
          (match E.resume_from_file (Plan_run.args ~n ()) ~path with
          | Ok _ -> Alcotest.failf "%s: -n %d accepted" key n
          | Error _ -> ());
          match
            (prefix ~n:24 key).E.prefix_run (Plan_run.args ~n ()) `Unbroken
          with
          | Ok _ -> Alcotest.failf "%s: unbroken -n %d accepted" key n
          | Error _ -> ())
        [ 0; -1; -5 ])
    [ "scale:chaos-xs@24"; "reliability:xl" ];
  Sys.remove path

(* The resumed serverless suffix is the in-process cell's: --faults
   reaches it. *)
let test_serverless_resume_faults () =
  let path = tmp "lvm_test_serverless.lvmsnap" in
  (match
     E.snapshot_to_file E.default_args ~key:"serverless:warm@4" ~path
   with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg);
  let notes ?spec () =
    match E.resume_from_file (Plan_run.args ~n:100 ?spec ()) ~path with
    | Ok r -> String.concat "\n" r.E.notes
    | Error msg -> Alcotest.fail msg
  in
  let plain = notes () in
  Alcotest.(check bool) "faults change the resumed cell" false
    (String.equal plain (notes ~spec:(parse_spec "create.phase2:0.5") ()));
  Sys.remove path

let test_snapshot_unknown_key () =
  match
    E.snapshot_to_file (Plan_run.args ~n:100 ()) ~key:"scale:chaos-xs@99999"
      ~path:(tmp "lvm_test_unknown.lvmsnap")
  with
  | Ok _ -> Alcotest.fail "unknown prefix key accepted"
  | Error _ -> ()

let suites =
  [
    ( "checkpoint.prefix",
      [
        QCheck_alcotest.to_alcotest prop_drain_snapshot;
        Alcotest.test_case "reliability: forks = unbroken twins" `Slow
          test_reliability_snapshot_equal;
        Alcotest.test_case "restore twice from one image" `Quick
          test_restore_twice;
        Alcotest.test_case "image jobs run their family's suffix" `Quick
          test_image_jobs_are_suffixes;
      ] );
    ( "checkpoint.format",
      [
        Alcotest.test_case "save/load round trip" `Quick
          test_save_load_roundtrip;
        Alcotest.test_case "header mismatches refused" `Quick
          test_header_mismatches;
        Alcotest.test_case "payload byte flips refused" `Quick
          test_payload_flips_refused;
        Alcotest.test_case "unquiesced state refused" `Quick
          test_not_quiesced;
        Alcotest.test_case "objects per guest in a host image" `Quick
          test_objects_per_guest;
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
