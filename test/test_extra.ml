(* A second round of edge-case tests across the stack: wire-level
   transactions, interpreter corners, toolstack mode combinations, and
   ablation/aux experiment sanity. *)

module Engine = Lightvm_sim.Engine
module Xs_server = Lightvm_xenstore.Xs_server
module Xs_wire = Lightvm_xenstore.Xs_wire
module Xs_costs = Lightvm_xenstore.Xs_costs
module Interp = Lightvm_minipy.Interp
module Image = Lightvm_guest.Image
module Mode = Lightvm_toolstack.Mode
module Costs = Lightvm_toolstack.Costs
module Vmm = Lightvm_cluster.Vmm
module Xen = Lightvm_hv.Xen
module Table = Lightvm_metrics.Table
module E = Lightvm.Experiment

let in_sim f () = ignore (Engine.run f)

(* ------------------------------------------------------------------ *)
(* Transactions over the wire protocol *)

let test_wire_transaction =
  in_sim (fun () ->
      let srv = Xs_server.create () in
      let send ?(tx = 0l) op args =
        Xs_server.handle_packet srv ~caller:0
          (Xs_wire.pack op ~req_id:1l ~tx_id:tx args)
      in
      (* Start a transaction. *)
      let _, args = Xs_wire.unpack (send Xs_wire.Transaction_start []) in
      let txid =
        match args with
        | [ id ] -> Int32.of_string id
        | _ -> Alcotest.fail "no txid"
      in
      (* Write inside it; invisible outside until commit. *)
      ignore (send ~tx:txid Xs_wire.Write [ "/wtx/a"; "1" ]);
      let header, _ = Xs_wire.unpack (send Xs_wire.Read [ "/wtx/a" ]) in
      Alcotest.(check bool) "invisible before commit" true
        (header.Xs_wire.op = Xs_wire.Error);
      (* Commit ("T") and read back. *)
      let header, _ =
        Xs_wire.unpack (send ~tx:txid Xs_wire.Transaction_end [ "T" ])
      in
      Alcotest.(check bool) "commit ok" true
        (header.Xs_wire.op = Xs_wire.Transaction_end);
      let _, args = Xs_wire.unpack (send Xs_wire.Read [ "/wtx/a" ]) in
      Alcotest.(check (list string)) "visible after commit" [ "1" ] args)

let test_wire_transaction_abort =
  in_sim (fun () ->
      let srv = Xs_server.create () in
      let send ?(tx = 0l) op args =
        Xs_server.handle_packet srv ~caller:0
          (Xs_wire.pack op ~req_id:1l ~tx_id:tx args)
      in
      let _, args = Xs_wire.unpack (send Xs_wire.Transaction_start []) in
      let txid = Int32.of_string (List.hd args) in
      ignore (send ~tx:txid Xs_wire.Write [ "/wtx/b"; "1" ]);
      (* Abort ("F"): nothing lands. *)
      ignore (send ~tx:txid Xs_wire.Transaction_end [ "F" ]);
      let header, _ = Xs_wire.unpack (send Xs_wire.Read [ "/wtx/b" ]) in
      Alcotest.(check bool) "aborted write gone" true
        (header.Xs_wire.op = Xs_wire.Error))

let test_wire_get_domain_path =
  in_sim (fun () ->
      let srv = Xs_server.create () in
      let reply =
        Xs_server.handle_packet srv ~caller:3
          (Xs_wire.pack Xs_wire.Get_domain_path ~req_id:9l ~tx_id:0l
             [ "3" ])
      in
      let header, args = Xs_wire.unpack reply in
      Alcotest.(check int32) "req id" 9l header.Xs_wire.req_id;
      Alcotest.(check (list string)) "path" [ "/local/domain/3" ] args)

(* ------------------------------------------------------------------ *)
(* Interpreter corners *)

let run_ok src =
  match Interp.run src with
  | Ok o -> o
  | Error msg -> Alcotest.failf "program failed: %s" msg

let test_minipy_for_over_string () =
  let o = run_ok "s = \"\"\nfor c in \"abc\":\n    s = c + s\nprint(s)" in
  Alcotest.(check (list string)) "reversed" [ "cba" ] o.Interp.stdout

let test_minipy_nested_calls () =
  let src =
    "def twice(x):\n    return x * 2\n\
     def compose(x):\n    return twice(twice(x)) + 1\n\
     print(compose(10))"
  in
  Alcotest.(check (list string)) "nested" [ "41" ]
    (run_ok src).Interp.stdout

let test_minipy_aug_index () =
  let src = "xs = [1, 2, 3]\nxs[0] += 10\nprint(xs)" in
  Alcotest.(check (list string)) "aug index" [ "[11, 2, 3]" ]
    (run_ok src).Interp.stdout

let test_minipy_negative_index_assign () =
  let src = "xs = [1, 2, 3]\nxs[-1] = 9\nprint(xs)" in
  Alcotest.(check (list string)) "neg index" [ "[1, 2, 9]" ]
    (run_ok src).Interp.stdout

let test_minipy_minmax_varargs () =
  Alcotest.(check (list string)) "min/max" [ "1 9" ]
    (run_ok "print(min(3, 1, 2), max(3, 9, 2))").Interp.stdout

let test_minipy_float_pow_and_mod () =
  let o = run_ok "print(2.0 ** -1, 5.5 % 2)" in
  Alcotest.(check (list string)) "floats" [ "0.5 1.5" ] o.Interp.stdout

let test_minipy_string_compare () =
  Alcotest.(check (list string)) "lexicographic" [ "True False" ]
    (run_ok {|print("abc" < "abd", "b" < "a")|}).Interp.stdout

let test_minipy_recursion_limit_via_steps () =
  match
    Interp.run ~max_steps:10_000
      "def loop(n):\n    return loop(n + 1)\nloop(0)"
  with
  | Error "step limit exceeded" -> ()
  | Ok _ -> Alcotest.fail "infinite recursion returned"
  | Error other -> Alcotest.failf "wrong error: %s" other

(* ------------------------------------------------------------------ *)
(* Toolstack mode matrix *)

let lifecycle mode image ~nics ~disks =
  in_sim (fun () ->
      let host = Vmm.create ~mode () in
      let vi =
        Vmm_boot.ok "vm_create"
          (Vmm.vm_create host (Vmm.vm_request ~name:"m" ~nics ~disks image))
      in
      Vmm_boot.ok "vm_boot" (Vmm.vm_boot host ~domid:vi.Vmm.vi_domid);
      Vmm_boot.delete host ~domid:vi.Vmm.vi_domid;
      (* Let any background shell refill settle before the census: only
         the flavor's pool shells remain. *)
      Engine.sleep 2.0;
      Alcotest.(check int) "clean teardown"
        (Vmm.pool_target host image ~nics ~disks)
        (Xen.guest_count (Vmm.xen host)))

let mode_matrix_cases =
  List.concat_map
    (fun (mode_name, mode) ->
      List.map
        (fun (img_name, image, nics, disks) ->
          Alcotest.test_case
            (Printf.sprintf "%s/%s" mode_name img_name)
            `Quick
            (lifecycle mode image ~nics ~disks))
        [
          ("debian+disk", Image.debian, 1, 1);
          ("tinyx", Image.tinyx, 1, 0);
          ("no-devices", Image.noop_unikernel, 0, 0);
          ("two-nics", Image.daytime, 2, 0);
        ])
    [
      ("xl", Mode.xl);
      ("chaos-xs", Mode.chaos_xs);
      ("lightvm", Mode.lightvm);
    ]

(* ------------------------------------------------------------------ *)
(* Aux experiments *)

let test_ablation_ordering () =
  let series = (Plan_run.run ~n:60 "ablation").E.series in
  let last label =
    match
      List.find_opt (fun (l : E.labelled) -> l.E.label = label) series
    with
    | Some l -> (
        match Lightvm_metrics.Series.last_y l.E.series with
        | Some y -> y
        | None -> Alcotest.fail "empty")
    | None -> Alcotest.failf "missing %s" label
  in
  Alcotest.(check bool) "cxenstored slower" true
    (last "cxenstored" > 1.2 *. last "oxenstored");
  Alcotest.(check bool) "logging does not change steady cost" true
    (Float.abs (last "oxenstored" -. last "oxenstored, logging off")
    < 0.02 *. last "oxenstored")

let test_wan_migration_table () =
  let table = Plan_run.table "wan-migration" in
  Alcotest.(check int) "three guests" 3 (List.length (Table.rows table));
  List.iter
    (fun row ->
      match row with
      | [ _; _; ms ] ->
          let v = float_of_string ms in
          Alcotest.(check bool)
            (Printf.sprintf "wan migration %.0f ms in [60, 250]" v)
            true
            (v > 60. && v < 250.)
      | _ -> Alcotest.fail "bad row")
    (Table.rows table)

let test_pause_unpause_table () =
  let table = Plan_run.table "pause" in
  match Table.rows table with
  | [ [ _; vm_pause; _ ]; [ _; c_pause; _ ] ] ->
      Alcotest.(check bool) "hypercall pause cheaper than freezer" true
        (float_of_string vm_pause < float_of_string c_pause)
  | _ -> Alcotest.fail "bad table shape"

let test_sysctl_in_devpage =
  in_sim (fun () ->
      let host = Vmm.create ~mode:Mode.lightvm () in
      let domid = Vmm_boot.boot host Image.daytime in
      match
        Lightvm_hv.Devpage.find (Xen.devpage (Vmm.xen host)) ~caller:0 ~domid
          ~kind:Lightvm_hv.Devpage.Sysctl ~devid:0
      with
      | Ok entry ->
          Alcotest.(check int) "backend is dom0" 0
            entry.Lightvm_hv.Devpage.backend_domid
      | Error _ -> Alcotest.fail "sysctl device missing from device page")

let suites =
  [
    ( "xenstore.wire-tx",
      [
        Alcotest.test_case "transaction commit" `Quick
          test_wire_transaction;
        Alcotest.test_case "transaction abort" `Quick
          test_wire_transaction_abort;
        Alcotest.test_case "get domain path" `Quick
          test_wire_get_domain_path;
      ] );
    ( "minipy.corners",
      [
        Alcotest.test_case "for over string" `Quick
          test_minipy_for_over_string;
        Alcotest.test_case "nested calls" `Quick test_minipy_nested_calls;
        Alcotest.test_case "augmented index" `Quick test_minipy_aug_index;
        Alcotest.test_case "negative index assign" `Quick
          test_minipy_negative_index_assign;
        Alcotest.test_case "min/max varargs" `Quick
          test_minipy_minmax_varargs;
        Alcotest.test_case "float pow/mod" `Quick
          test_minipy_float_pow_and_mod;
        Alcotest.test_case "string compare" `Quick
          test_minipy_string_compare;
        Alcotest.test_case "recursion hits step limit" `Quick
          test_minipy_recursion_limit_via_steps;
      ] );
    ("toolstack.matrix", mode_matrix_cases);
    ( "experiment.aux",
      [
        Alcotest.test_case "ablation ordering" `Quick
          test_ablation_ordering;
        Alcotest.test_case "wan migration" `Quick test_wan_migration_table;
        Alcotest.test_case "pause/unpause" `Quick test_pause_unpause_table;
        Alcotest.test_case "sysctl in device page" `Quick
          test_sysctl_in_devpage;
      ] );
  ]

(* ------------------------------------------------------------------ *)
(* Small modules: Mode, Hotplug estimates *)

module Hotplug = Lightvm_toolstack.Hotplug
module Device = Lightvm_guest.Device

let test_mode_names () =
  Alcotest.(check (list string))
    "figure 9 labels"
    [ "xl"; "chaos [XS]"; "chaos [XS+split]"; "chaos [NoXS]"; "LightVM" ]
    (List.map Mode.name Mode.all_modes);
  Alcotest.(check int) "five distinct modes" 5
    (List.length (List.sort_uniq compare Mode.all_modes))

let test_hotplug_estimates () =
  let costs = Costs.default in
  let vif = Device.vif ~devid:0 () in
  let vbd = Device.vbd ~devid:0 () in
  let script k = Hotplug.estimate Mode.Script ~costs k in
  let xendevd k = Hotplug.estimate Mode.Xendevd ~costs k in
  Alcotest.(check bool) "scripts take tens of ms (paper 5.3)" true
    (script vif > 0.02 && script vbd > script vif);
  Alcotest.(check bool) "xendevd well under a ms x50" true
    (xendevd vif < 0.001 && xendevd vif < script vif /. 50.)

let prop_ps_fairness =
  (* K equal jobs started together on one core finish simultaneously. *)
  QCheck.Test.make ~name:"processor sharing is fair for equal jobs"
    ~count:50
    QCheck.(pair (int_range 2 10) (float_bound_exclusive 1.0))
    (fun (k, w) ->
      let w = w +. 0.01 in
      let finishes = ref [] in
      ignore
        (Engine.run (fun () ->
             let cpu = Lightvm_sim.Cpu.create ~ncores:1 () in
             for _ = 1 to k do
               Engine.spawn (fun () ->
                   Lightvm_sim.Cpu.consume cpu ~core:0 w;
                   finishes := Engine.now () :: !finishes)
             done));
      List.length !finishes = k
      && List.for_all
           (fun t -> Float.abs (t -. (w *. float_of_int k)) < 1e-9)
           !finishes)

let small_modules_suite =
  ( "extra.small-modules",
    [
      Alcotest.test_case "mode names" `Quick test_mode_names;
      Alcotest.test_case "hotplug estimates" `Quick test_hotplug_estimates;
      QCheck_alcotest.to_alcotest prop_ps_fairness;
    ] )

let suites = suites @ [ small_modules_suite ]
