(* Tests for the public facade: host assembly through the Vmm API and
   the experiment harness (shape checks on small instances of each
   figure). *)

module Engine = Lightvm_sim.Engine
module Series = Lightvm_metrics.Series
module Table = Lightvm_metrics.Table
module Params = Lightvm_hv.Params
module Xen = Lightvm_hv.Xen
module Image = Lightvm_guest.Image
module Mode = Lightvm_toolstack.Mode
module Vmm = Lightvm_cluster.Vmm
module E = Lightvm.Experiment

let in_sim f () = ignore (Engine.run f)

let find_label label (series : E.labelled list) =
  match List.find_opt (fun l -> l.E.label = label) series with
  | Some l -> l.E.series
  | None ->
      Alcotest.failf "missing series %S (have: %s)" label
        (String.concat ", " (List.map (fun l -> l.E.label) series))

let last_y series =
  match Series.last_y series with
  | Some y -> y
  | None -> Alcotest.fail "empty series"

let first_y series =
  match Series.points series with
  | (_, y) :: _ -> y
  | [] -> Alcotest.fail "empty series"

(* ------------------------------------------------------------------ *)
(* Host *)

let test_host_boot_vm =
  in_sim (fun () ->
      let host = Vmm.create () in
      Alcotest.(check string) "default platform" "xeon-e5-1630v3"
        (Vmm.platform host).Params.name;
      let domid = Vmm_boot.boot host Image.daytime in
      Alcotest.(check int) "one vm" 1 (Vmm.vm_count host);
      Alcotest.(check bool) "memory accounted" true
        (Vmm.guest_mem_kb host > 3_600);
      Vmm_boot.delete host ~domid;
      Alcotest.(check int) "destroyed" 0 (Vmm.vm_count host))

let test_host_inflated_image =
  in_sim (fun () ->
      let host = Vmm.create () in
      let fat = Image.with_inflated_image Image.daytime ~extra_mb:100. in
      let t0 = Engine.now () in
      ignore (Vmm_boot.ok "vm_create" (Vmm.vm_create host (Vmm.vm_request fat)));
      let t_create = Engine.now () -. t0 in
      (* 100 MB at ~1 ms/MB dominates creation. *)
      Alcotest.(check bool)
        (Printf.sprintf "load dominates (%.0f ms)" (t_create *. 1e3))
        true
        (t_create > 0.09))

let test_host_modes_independent =
  in_sim (fun () ->
      let a = Vmm.create ~mode:Mode.xl () in
      let b = Vmm.create ~mode:Mode.lightvm () in
      ignore (Vmm_boot.boot a Image.daytime);
      Alcotest.(check int) "hosts isolated" 0 (Vmm.vm_count b))

(* ------------------------------------------------------------------ *)
(* Experiments (small instances), run the one way every front end runs
   them: the registry plan, merged by run_plan. *)

let series ?n id = (Plan_run.run ?n id).E.series

let test_fig1 () =
  let r = Plan_run.run "fig1" in
  let rows =
    match r.E.tables with [ t ] -> List.length (Table.rows t) | _ -> 0
  in
  Alcotest.(check bool) "rows" true (rows >= 10);
  match r.E.notes with
  | [ note ] ->
      Alcotest.(check bool) (note ^ ": positive growth") true
        (Scanf.sscanf note "growth: %f syscalls/year" Fun.id > 0.)
  | _ -> Alcotest.fail "expected one growth note"

let test_fig2_linear () =
  match series "fig2" with
  | [ l ] -> (
      match Series.points l.E.series with
      | (_, t0) :: _ :: (_, t100) :: _ as points ->
          (* ~1 ms per MB (Fig 2's slope), from 100 MB of extra image to
             1000 MB. *)
          let t1000 = snd (List.nth points (List.length points - 1)) in
          let slope = (t1000 -. t100) /. 900. in
          Alcotest.(check bool)
            (Printf.sprintf "slope %.2f ms/MB" slope)
            true
            (slope > 0.8 && slope < 1.2);
          Alcotest.(check bool) "small base" true (t0 < 20.)
      | _ -> Alcotest.fail "wrong point count")
  | _ -> Alcotest.fail "expected one series"

let test_fig4_ordering () =
  let series = series ~n:25 "fig4" in
  let debian_boot = last_y (find_label "Debian Boot" series) in
  let tinyx_boot = last_y (find_label "Tinyx Boot" series) in
  let minios_boot = last_y (find_label "MiniOS Boot" series) in
  Alcotest.(check bool)
    (Printf.sprintf "Debian %.0f > Tinyx %.0f > MiniOS %.0f ms"
       debian_boot tinyx_boot minios_boot)
    true
    (debian_boot > tinyx_boot && tinyx_boot > minios_boot);
  Alcotest.(check bool) "Debian boots in seconds" true
    (debian_boot > 1000.);
  Alcotest.(check bool) "MiniOS boots in ms" true (minios_boot < 15.)

let test_fig5_devices_dominate () =
  let series = series ~n:20 "fig5" in
  let devices = last_y (find_label "devices" series) in
  let total =
    List.fold_left
      (fun acc (l : E.labelled) -> acc +. last_y l.E.series)
      0. series
  in
  Alcotest.(check bool) "devices biggest early" true
    (devices > 0.3 *. total)

let test_fig9_ordering () =
  let series = series ~n:40 "fig9" in
  let get label = last_y (find_label label series) in
  let xl = get "xl" in
  let chaos = get "chaos [XS]" in
  let lightvm = get "LightVM" in
  Alcotest.(check bool)
    (Printf.sprintf "xl %.0f > chaos %.1f > lightvm %.1f" xl chaos lightvm)
    true
    (xl > chaos && chaos > lightvm);
  Alcotest.(check bool) "lightvm ~4ms" true (lightvm < 6.)

let test_fig10_density () =
  let series = series ~n:300 "fig10" in
  let lightvm = find_label "LightVM" series in
  let docker = find_label "Docker" series in
  Alcotest.(check int) "all vms created" 300 (Series.length lightvm);
  Alcotest.(check bool) "vm creation stays in ms" true
    (Series.max_y lightvm < 50.);
  Alcotest.(check bool) "docker much slower per instance" true
    (first_y docker > 10. *. first_y lightvm)

let test_fig12_flat_lightvm () =
  let series = series ~n:60 "fig12" in
  let lv_save = find_label "LightVM save" series in
  let xl_restore = find_label "xl restore" series in
  let lv_restore = find_label "LightVM restore" series in
  Alcotest.(check bool) "lightvm save flat" true
    (Series.max_y lv_save -. Series.min_y lv_save < 5.);
  Alcotest.(check bool)
    (Printf.sprintf "xl restore %.0f much slower than lightvm %.0f"
       (last_y xl_restore) (last_y lv_restore))
    true
    (last_y xl_restore > 10. *. last_y lv_restore)

let test_fig13_migration_times () =
  let lv = last_y (find_label "LightVM" (series ~n:40 "fig13")) in
  Alcotest.(check bool)
    (Printf.sprintf "LightVM migration ~60ms (%.0f)" lv)
    true
    (lv > 30. && lv < 120.)

let test_fig14_memory_ordering () =
  let series = series ~n:100 "fig14" in
  let get label = last_y (find_label label series) in
  let debian = get "Debian" in
  let tinyx = get "Tinyx" in
  let docker = get "Docker Micropython" in
  let minipython = get "Minipython" in
  let proc = get "Micropython Process" in
  Alcotest.(check bool)
    (Printf.sprintf "ordering %.0f > %.0f > %.0f; proc %.0f smallest"
       debian tinyx minipython proc)
    true
    (debian > tinyx && tinyx > minipython && minipython > proc);
  (* Docker's rss includes the engine: bigger than the unikernels at
     low counts. *)
  Alcotest.(check bool) "docker engine base visible" true (docker > 200.)

let test_fig15_ordering () =
  let series = series ~n:100 "fig15" in
  let get label = last_y (find_label label series) in
  Alcotest.(check bool)
    (Printf.sprintf "Debian %.2f%% > Tinyx %.3f%% > Unikernel %.4f%%"
       (get "Debian") (get "Tinyx") (get "Unikernel"))
    true
    (get "Debian" > get "Tinyx" && get "Tinyx" >= get "Unikernel")

let test_fig16c_levels () =
  let series = series "fig16c" in
  let bare = last_y (find_label "bare metal" series) in
  let uni = last_y (find_label "unikernel" series) in
  Alcotest.(check bool)
    (Printf.sprintf "bare %.2f ~5x unikernel %.2f" bare uni)
    true
    (bare /. uni > 4. && bare /. uni < 6.)

let test_headline_table () =
  let table = Plan_run.table "headline" in
  Alcotest.(check int) "seven rows" 7 (List.length (Table.rows table));
  (* Every measured cell is filled in. *)
  List.iter
    (fun row ->
      match row with
      | [ _; _; measured ] ->
          Alcotest.(check bool) "measured non-empty" true
            (String.length measured > 0)
      | _ -> Alcotest.fail "bad row shape")
    (Table.rows table)

let test_tinyx_table () =
  Alcotest.(check int) "four apps" 4
    (List.length (Table.rows (Plan_run.table "tinyx")))

let suites =
  [
    ( "core.host",
      [
        Alcotest.test_case "boot vm" `Quick test_host_boot_vm;
        Alcotest.test_case "inflated image" `Quick test_host_inflated_image;
        Alcotest.test_case "hosts independent" `Quick
          test_host_modes_independent;
      ] );
    ( "core.experiment",
      [
        Alcotest.test_case "fig1" `Quick test_fig1;
        Alcotest.test_case "fig2 linear" `Quick test_fig2_linear;
        Alcotest.test_case "fig4 ordering" `Quick test_fig4_ordering;
        Alcotest.test_case "fig5 devices dominate" `Quick
          test_fig5_devices_dominate;
        Alcotest.test_case "fig9 ordering" `Quick test_fig9_ordering;
        Alcotest.test_case "fig10 density" `Quick test_fig10_density;
        Alcotest.test_case "fig12 checkpoint" `Quick
          test_fig12_flat_lightvm;
        Alcotest.test_case "fig13 migration" `Quick
          test_fig13_migration_times;
        Alcotest.test_case "fig14 memory" `Quick test_fig14_memory_ordering;
        Alcotest.test_case "fig15 cpu" `Quick test_fig15_ordering;
        Alcotest.test_case "fig16c levels" `Quick test_fig16c_levels;
        Alcotest.test_case "headline table" `Quick test_headline_table;
        Alcotest.test_case "tinyx table" `Quick test_tinyx_table;
      ] );
  ]
