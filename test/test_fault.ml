(* Fault-injection layer: spec parsing, determinism (equal seeds =>
   identical digests for any spec), toolstack retry behaviour, and the
   no-leak invariant after injected mid-pipeline failures. *)

module Engine = Lightvm_sim.Engine
module Fault = Lightvm_sim.Fault
module Mode = Lightvm_toolstack.Mode
module Toolstack = Lightvm_toolstack.Toolstack
module Xs_server = Lightvm_xenstore.Xs_server
module Image = Lightvm_guest.Image
module Vmm = Lightvm_cluster.Vmm

let run_sim f =
  let result = ref None in
  ignore
    (Engine.run (fun () ->
         result := Some (f ());
         Engine.stop ()));
  match !result with
  | Some r -> r
  | None -> Alcotest.fail "simulation did not complete"

let spec_of_string s =
  match Fault.parse_spec s with
  | Ok spec -> spec
  | Error msg -> Alcotest.failf "parse_spec %S: %s" s msg

(* ------------------------------------------------------------------ *)
(* Spec parsing *)

let test_parse_roundtrip () =
  let cases =
    [ "";
      "xs.eagain:0.5";
      "xs.eagain:0.5,hotplug.hang:@3";
      "create.phase*:0.01,xs.equota";
      "migrate.corrupt:@1" ]
  in
  List.iter
    (fun s ->
      let once = Fault.spec_to_string (spec_of_string s) in
      let twice = Fault.spec_to_string (spec_of_string once) in
      Alcotest.(check string) (Printf.sprintf "roundtrip %S" s) once twice)
    cases;
  Alcotest.(check string) "empty spec renders empty" ""
    (Fault.spec_to_string Fault.empty_spec)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_parse_wildcard () =
  let spec = spec_of_string "create.phase*:0.25" in
  let rendered = Fault.spec_to_string spec in
  List.iter
    (fun i ->
      let entry = Printf.sprintf "create.phase%d:0.25" i in
      Alcotest.(check bool)
        (entry ^ " present") true
        (contains ~sub:entry rendered))
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9 ]

let test_parse_override () =
  (* Later entries win for the same point. *)
  let spec = spec_of_string "xs.eagain:0.1,xs.eagain:@4" in
  Alcotest.(check string) "override" "xs.eagain:@4" (Fault.spec_to_string spec)

let test_parse_errors () =
  let bad s =
    match Fault.parse_spec s with
    | Ok _ -> Alcotest.failf "parse_spec %S unexpectedly succeeded" s
    | Error _ -> ()
  in
  bad "no.such.point:0.5";
  bad "nosuchprefix*:0.5";
  bad "xs.eagain:1.5";
  bad "xs.eagain:@0";
  bad "xs.eagain:cheese"

let test_scale () =
  let spec = spec_of_string "xs.eagain:0.2,hotplug.hang:@8" in
  Alcotest.(check string) "x2" "xs.eagain:0.4,hotplug.hang:@4"
    (Fault.spec_to_string (Fault.scale spec 2.));
  Alcotest.(check bool) "x0 is empty" true
    (Fault.spec_is_empty (Fault.scale spec 0.))

(* ------------------------------------------------------------------ *)
(* Fire semantics outside / under the empty spec *)

let test_point_unregistered_raises () =
  Alcotest.check_raises "typo fails loudly"
    (Invalid_argument "Fault.point: unregistered point \"xs.tpyo\"")
    (fun () -> ignore (Fault.point "xs.tpyo"))

let test_empty_spec_inert () =
  let eagain = Fault.point "xs.eagain" in
  Alcotest.(check bool) "no injector: no fire" false (Fault.fire eagain);
  let inj = Fault.create ~seed:1L Fault.empty_spec in
  Fault.with_injector inj (fun () ->
      Alcotest.(check bool) "not active" false (Fault.active ());
      Alcotest.(check bool) "empty spec: no fire" false (Fault.fire eagain));
  Alcotest.(check int) "no counters" 0 (List.length (Fault.counts inj));
  Alcotest.(check int) "nothing injected" 0 (Fault.injected_total inj)

(* ------------------------------------------------------------------ *)
(* Determinism: equal (seed, spec) => identical run digests. The digest
   covers each attempt's outcome and simulated timing (exact hex
   floats) plus the injector's per-point counters. *)

let reliability_modes = [ Mode.xl; Mode.chaos_xs; Mode.chaos_noxs ]

let attempt_request i =
  Vmm.vm_request ~nics:1 ~disks:0
    ~name:(Printf.sprintf "flt-%d" i)
    Image.daytime

(* Warm up with one fault-free create+destroy first: the first creation
   materialises shared store directories (/vm, the backend kind levels)
   that persist for the host's lifetime, so resource snapshots are only
   comparable from the second creation on (see DESIGN.md "Failure
   model"). *)
let warm_host mode =
  let host = Vmm.create ~mode () in
  Vmm_boot.delete host ~domid:(Vmm_boot.boot host Image.daytime);
  host

let run_digest ~mode ~seed spec =
  let inj = Fault.create ~seed spec in
  let buf = Buffer.create 256 in
  run_sim (fun () ->
      let host = warm_host mode in
      Fault.with_injector inj (fun () ->
          for i = 1 to 3 do
            let t0 = Engine.now () in
            (match Vmm.vm_create host (attempt_request i) with
            | Ok _ -> Buffer.add_string buf "ok "
            | Error e ->
                Buffer.add_string buf ("err " ^ Vmm.error_to_string e ^ " "));
            Buffer.add_string buf (Printf.sprintf "%h\n" (Engine.now () -. t0))
          done));
  List.iter
    (fun (p, (checks, injected)) ->
      Buffer.add_string buf (Printf.sprintf "%s %d/%d\n" p injected checks))
    (Fault.counts inj);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let spec_string_gen =
  QCheck.Gen.(
    let entry (name, _) =
      frequency
        [ (3, return None);
          ( 2,
            map
              (fun p -> Some (Printf.sprintf "%s:%.3f" name p))
              (float_bound_inclusive 0.4) );
          ( 1,
            map
              (fun k -> Some (Printf.sprintf "%s:@%d" name (1 + k)))
              (int_bound 7) ) ]
    in
    map
      (fun entries -> String.concat "," (List.filter_map Fun.id entries))
      (flatten_l (List.map entry Fault.points)))

let prop_equal_seed_equal_digest =
  QCheck.Test.make ~count:6 ~name:"fault: equal (seed, spec) => equal digest"
    (QCheck.make
       QCheck.Gen.(pair spec_string_gen (map Int64.of_int int))
       ~print:(fun (s, seed) -> Printf.sprintf "spec=%S seed=%Ld" s seed))
    (fun (spec_str, seed) ->
      let spec = spec_of_string spec_str in
      let mode = Mode.chaos_xs in
      String.equal (run_digest ~mode ~seed spec) (run_digest ~mode ~seed spec))

(* ------------------------------------------------------------------ *)
(* Retry: a periodic transaction conflict is absorbed by the client's
   bounded retry loop — creation still succeeds, and the daemon's
   conflict counter proves the conflicts really happened. *)

let test_eagain_retry_absorbed () =
  run_sim (fun () ->
      let host = warm_host Mode.chaos_xs in
      (* Each creation commits one frontend transaction, so with @2
         the 2nd and 3rd creations conflict once each (checks 2 and 4)
         and their single retry (checks 3 and 5) goes through. *)
      let inj = Fault.create ~seed:3L (spec_of_string "xs.eagain:@2") in
      Fault.with_injector inj (fun () ->
          for i = 1 to 3 do
            match Vmm.vm_create host (attempt_request i) with
            | Ok _ -> ()
            | Error e ->
                Alcotest.failf "create %d failed despite retries: %s" i
                  (Vmm.error_to_string e)
          done);
      let counters =
        Xs_server.counters (Toolstack.xs_server (Vmm.toolstack host))
      in
      Alcotest.(check bool) "conflicts recorded" true
        (counters.Xs_server.tx_conflicts > 0);
      Alcotest.(check bool) "faults were injected" true
        (Fault.injected_total inj > 0))

(* ------------------------------------------------------------------ *)
(* No-leak invariant: with any single creation-path point firing on
   every check, the attempt either fails and leaves every resource
   count exactly as before (rollback released the partially-built
   domain), or succeeds because the point is inert for that mode (e.g.
   xs.* under noxs, backend pre-allocation under XenStore). *)

let creation_points =
  [ "xs.eagain"; "xs.equota"; "create.phase1"; "create.phase2";
    "create.phase3"; "create.phase4"; "create.phase5"; "create.phase6";
    "create.phase7"; "create.phase8"; "create.phase9"; "hotplug.hang";
    "evtchn.alloc"; "gnttab.alloc" ]

let inert mode point =
  match point with
  | "xs.eagain" | "xs.equota" -> mode.Mode.registry = Mode.Noxs
  | "evtchn.alloc" | "gnttab.alloc" -> mode.Mode.registry = Mode.Xenstore
  | _ -> false

let test_no_leak_after_injected_failure () =
  List.iter
    (fun mode ->
      List.iter
        (fun point ->
          let inj = Fault.create ~seed:11L (spec_of_string point) in
          run_sim (fun () ->
              let host = warm_host mode in
              let before = Vmm.resources host in
              let outcome =
                Fault.with_injector inj (fun () ->
                    Vmm.vm_create host (attempt_request 1))
              in
              match outcome with
              | Error _ -> (
                  match Vmm.check_leak host ~before with
                  | Ok () -> ()
                  | Error leaked ->
                      Alcotest.failf "%s under %s leaked: %s" (Mode.name mode)
                        point leaked)
              | Ok _ ->
                  if not (inert mode point) then
                    Alcotest.failf "%s under %s unexpectedly succeeded"
                      (Mode.name mode) point))
        creation_points)
    reliability_modes

let suites =
  [
    ( "sim.fault",
      [
        Alcotest.test_case "spec roundtrip" `Quick test_parse_roundtrip;
        Alcotest.test_case "wildcard expansion" `Quick test_parse_wildcard;
        Alcotest.test_case "later entry overrides" `Quick test_parse_override;
        Alcotest.test_case "malformed specs rejected" `Quick test_parse_errors;
        Alcotest.test_case "scale" `Quick test_scale;
        Alcotest.test_case "unregistered point raises" `Quick
          test_point_unregistered_raises;
        Alcotest.test_case "empty spec is inert" `Quick test_empty_spec_inert;
        QCheck_alcotest.to_alcotest prop_equal_seed_equal_digest;
      ] );
    ( "toolstack.fault",
      [
        Alcotest.test_case "EAGAIN absorbed by retry" `Quick
          test_eagain_retry_absorbed;
        Alcotest.test_case "no leak after injected failure" `Slow
          test_no_leak_after_injected_failure;
      ] );
  ]
