(* Guest-level tests: images, boot behaviour under contention, idle
   background load, and frontend bring-up paths. *)

module Engine = Lightvm_sim.Engine
module Cpu = Lightvm_sim.Cpu
module Xen = Lightvm_hv.Xen
module Domain = Lightvm_hv.Domain
module Image = Lightvm_guest.Image
module Guest = Lightvm_guest.Guest
module Ctrl = Lightvm_guest.Ctrl
module Device = Lightvm_guest.Device
module Mode = Lightvm_toolstack.Mode
module Toolstack = Lightvm_toolstack.Toolstack
module Create = Lightvm_toolstack.Create

let in_sim f () = ignore (Engine.run f)

(* The creation pipeline, run inline on [ts]'s host. *)
let create_exn ts cfg =
  match Create.create (Toolstack.env ts) cfg with
  | Ok created -> created
  | Error msg -> Alcotest.fail msg

(* ------------------------------------------------------------------ *)
(* Images *)

let test_image_catalogue () =
  (* Paper numbers embedded in the image catalogue. *)
  Alcotest.(check (float 0.01)) "daytime disk" 0.48
    Image.daytime.Image.disk_mb;
  Alcotest.(check (float 0.01)) "daytime mem" 3.6 Image.daytime.Image.mem_mb;
  Alcotest.(check (float 0.01)) "minipython mem" 8.
    Image.minipython.Image.mem_mb;
  Alcotest.(check (float 1.)) "debian mem" 111. Image.debian.Image.mem_mb;
  Alcotest.(check bool) "unikernels have no idle load" true
    (Image.idle_load Image.daytime = 0.);
  Alcotest.(check bool) "debian idles hardest" true
    (Image.idle_load Image.debian > Image.idle_load Image.tinyx);
  List.iter
    (fun img ->
      Alcotest.(check (option string))
        ("find " ^ img.Image.name)
        (Some img.Image.name)
        (Option.map (fun i -> i.Image.name) (Image.find img.Image.name)))
    Image.all

let test_image_inflation () =
  let fat = Image.with_inflated_image Image.daytime ~extra_mb:100. in
  Alcotest.(check (float 0.01)) "kernel grows" 100.48 fat.Image.kernel_mb;
  Alcotest.(check (float 1e-9)) "boot work unchanged"
    (Image.boot_work Image.daytime)
    (Image.boot_work fat)

(* ------------------------------------------------------------------ *)
(* Boot under contention *)

let boot_one ts image =
  let cfg = Lightvm_toolstack.Vmconfig.for_image ~name:"probe" image in
  let created = create_exn ts cfg in
  Guest.wait_ready created.Create.guest;
  (created, Guest.boot_time created.Create.guest)

let test_boot_stretches_under_load =
  in_sim (fun () ->
      let xen = Xen.boot () in
      let ts = Toolstack.make ~xen ~mode:Mode.lightvm () in
      (* Saturate every guest core with busy loops. *)
      List.iter
        (fun core ->
          Engine.spawn ~name:"hog" (fun () ->
              for _ = 1 to 10_000 do
                Cpu.consume (Xen.cpu xen) ~core 0.01
              done))
        (List.init
           (Lightvm_hv.Params.guest_cores (Xen.platform xen))
           (Xen.guest_core xen));
      Engine.sleep 0.001;
      let _, loaded_boot = boot_one ts Image.daytime in
      (* An unloaded host for comparison. *)
      let xen2 = Xen.boot () in
      let ts2 = Toolstack.make ~xen:xen2 ~mode:Mode.lightvm () in
      let _, idle_boot = boot_one ts2 Image.daytime in
      Alcotest.(check bool)
        (Printf.sprintf "boot stretches with contention (%.1f vs %.1f ms)"
           (loaded_boot *. 1e3) (idle_boot *. 1e3))
        true
        (loaded_boot > 1.4 *. idle_boot))

let test_idle_load_consumes_cpu =
  in_sim (fun () ->
      let xen = Xen.boot () in
      let ts = Toolstack.make ~xen ~mode:Mode.lightvm () in
      let cfg =
        Lightvm_toolstack.Vmconfig.for_image ~name:"idler" Image.debian
      in
      let created = create_exn ts cfg in
      Guest.wait_ready created.Create.guest;
      Cpu.reset_stats (Xen.cpu xen);
      let t0 = Engine.now () in
      Engine.sleep 10.;
      let util = Cpu.utilization (Xen.cpu xen) ~since:t0 in
      (* One idle Debian ~0.1% of a core = 0.025% of the machine. *)
      Alcotest.(check bool)
        (Printf.sprintf "idle debian load %.4f%%" (util *. 100.))
        true
        (util > 0.0001 && util < 0.001);
      (* Shutting the guest down stops the load. *)
      Guest.shutdown created.Create.guest;
      Engine.sleep 0.5;
      Cpu.reset_stats (Xen.cpu xen);
      let t1 = Engine.now () in
      Engine.sleep 5.;
      Alcotest.(check (float 1e-9)) "no load after shutdown" 0.
        (Cpu.utilization (Xen.cpu xen) ~since:t1))

let test_boot_time_accessor =
  in_sim (fun () ->
      let xen = Xen.boot () in
      let ts = Toolstack.make ~xen ~mode:Mode.lightvm () in
      let created, boot_time = boot_one ts Image.daytime in
      Alcotest.(check bool) "positive" true (boot_time > 0.);
      Alcotest.(check bool) "booted" true
        (Guest.booted created.Create.guest);
      (* vif + the noxs sysctl pseudo-device *)
      Alcotest.(check int) "devices connected" 2
        (List.length (Guest.devices created.Create.guest)))

let test_noxs_vs_xenbus_boot_cost =
  (* The same guest boots faster under noxs than via the XenStore. *)
  in_sim (fun () ->
      let boot_under mode =
        let xen = Xen.boot () in
        let ts = Toolstack.make ~xen ~mode () in
        snd (boot_one ts Image.daytime)
      in
      let xs = boot_under Mode.chaos_xs in
      let noxs = boot_under Mode.chaos_noxs in
      Alcotest.(check bool)
        (Printf.sprintf "noxs boot faster (%.2f vs %.2f ms)" (noxs *. 1e3)
           (xs *. 1e3))
        true
        (noxs < xs))

(* ------------------------------------------------------------------ *)
(* Control pages *)

let test_ctrl_rendezvous =
  in_sim (fun () ->
      let ctrl = Ctrl.create () in
      let page = Ctrl.register ctrl ~backend_domid:0 ~grant_ref:9
          ~mac:"00:16:3e:00:00:01" in
      Alcotest.(check string) "mac" "00:16:3e:00:00:01" (Ctrl.mac page);
      let woke = ref false in
      Engine.spawn (fun () ->
          Ctrl.await_connected page;
          woke := true);
      Engine.sleep 0.001;
      Alcotest.(check bool) "still waiting" false !woke;
      Ctrl.set_back_state page Ctrl.Connected;
      Engine.sleep 0.001;
      Alcotest.(check bool) "woken on connect" true !woke;
      Alcotest.(check bool) "found by grant" true
        (Ctrl.find ctrl ~backend_domid:0 ~grant_ref:9 == page);
      Ctrl.unregister ctrl ~backend_domid:0 ~grant_ref:9;
      Alcotest.(check bool) "unregistered" true
        (match Ctrl.find ctrl ~backend_domid:0 ~grant_ref:9 with
        | _ -> false
        | exception Not_found -> true))

(* ------------------------------------------------------------------ *)
(* Devices *)

let test_device_paths () =
  let vif = Device.vif ~devid:0 () in
  let str = Lightvm_xenstore.Xs_path.to_string in
  Alcotest.(check string) "frontend dir" "/local/domain/5/device/vif/0"
    (str (Device.frontend_dir ~domid:5 vif));
  Alcotest.(check string) "backend dir" "/local/domain/0/backend/vif/5/0"
    (str (Device.backend_dir ~domid:5 vif));
  Alcotest.(check string) "backend domain dir" "/local/domain/0/backend/vif/5"
    (str (Device.backend_domain_dir ~domid:5 vif));
  let vbd = Device.vbd ~devid:1 () in
  Alcotest.(check string) "vbd backend" "/local/domain/0/backend/vbd/5/1"
    (str (Device.backend_dir ~domid:5 vbd))

let test_shutdown_stops_idle_load =
  (* A shutdown mid-tick: the idle loop, asleep until its next tick,
     wakes to a guest that is down and does no more work. *)
  in_sim (fun () ->
      let xen = Xen.boot () in
      let ts = Toolstack.make ~xen ~mode:Mode.lightvm () in
      let cfg =
        Lightvm_toolstack.Vmconfig.for_image ~name:"stopped" Image.tinyx
      in
      let created = create_exn ts cfg in
      Guest.wait_ready created.Create.guest;
      let guest = created.Create.guest in
      let measure () =
        Cpu.reset_stats (Xen.cpu xen);
        let t0 = Engine.now () in
        Engine.sleep 20.;
        Cpu.utilization (Xen.cpu xen) ~since:t0
      in
      let before = measure () in
      Alcotest.(check bool)
        (Printf.sprintf "idle load while up (%.5f)" before)
        true (before > 0.);
      Guest.shutdown guest;
      Alcotest.(check (float 0.)) "no load after shutdown" 0. (measure ()))

let suites =
  [
    ( "guest.image",
      [
        Alcotest.test_case "catalogue" `Quick test_image_catalogue;
        Alcotest.test_case "inflation" `Quick test_image_inflation;
      ] );
    ( "guest.boot",
      [
        Alcotest.test_case "stretches under load" `Quick
          test_boot_stretches_under_load;
        Alcotest.test_case "idle load" `Quick test_idle_load_consumes_cpu;
        Alcotest.test_case "boot time accessor" `Quick
          test_boot_time_accessor;
        Alcotest.test_case "noxs faster than xenbus" `Quick
          test_noxs_vs_xenbus_boot_cost;
        Alcotest.test_case "shutdown stops the idle load" `Quick
          test_shutdown_stops_idle_load;
      ] );
    ( "guest.ctrl",
      [ Alcotest.test_case "rendezvous" `Quick test_ctrl_rendezvous ] );
    ( "guest.device",
      [ Alcotest.test_case "paths" `Quick test_device_paths ] );
  ]
