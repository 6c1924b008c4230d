(* Integration tests: config parsing, the full VM creation pipeline in
   every toolstack mode, shell pools, checkpointing and migration. *)

module Engine = Lightvm_sim.Engine
module Xen = Lightvm_hv.Xen
module Domain = Lightvm_hv.Domain
module Image = Lightvm_guest.Image
module Guest = Lightvm_guest.Guest
module Vmconfig = Lightvm_toolstack.Vmconfig
module Mode = Lightvm_toolstack.Mode
module Costs = Lightvm_toolstack.Costs
module Create = Lightvm_toolstack.Create
module Pool = Lightvm_toolstack.Pool
module Toolstack = Lightvm_toolstack.Toolstack
module Checkpoint = Lightvm_toolstack.Checkpoint
module Migrate = Lightvm_toolstack.Migrate
module Vmm = Lightvm_cluster.Vmm
module Backend = Lightvm_toolstack.Backend
module Serverless = Lightvm_serverless.Serverless

let in_sim f () = ignore (Engine.run f)

(* ------------------------------------------------------------------ *)
(* Vmconfig *)

let sample_config =
  {|
# a daytime guest
name = "daytime-1"
kernel = "daytime"
memory = 4
vcpus = 1
vif = ['bridge=xenbr0']
disk = ['ramdisk,xvda,w']
on_crash = "destroy"
custom_key = "custom value"
|}

let test_config_parse () =
  match Vmconfig.parse sample_config with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok cfg ->
      Alcotest.(check string) "name" "daytime-1" cfg.Vmconfig.name;
      Alcotest.(check string) "kernel" "daytime" cfg.Vmconfig.kernel;
      Alcotest.(check (float 1e-9)) "memory" 4. cfg.Vmconfig.memory_mb;
      Alcotest.(check int) "vcpus" 1 cfg.Vmconfig.vcpus;
      Alcotest.(check (list string)) "vifs" [ "bridge=xenbr0" ]
        cfg.Vmconfig.vifs;
      Alcotest.(check (list string))
        "disks (commas inside quotes survive)" [ "ramdisk,xvda,w" ]
        cfg.Vmconfig.disks;
      Alcotest.(check (list (pair string string)))
        "extra keys preserved"
        [ ("custom_key", "custom value") ]
        cfg.Vmconfig.extra;
      Alcotest.(check int) "two devices" 2
        (List.length (Vmconfig.devices cfg))

let test_config_errors () =
  let expect_error text =
    match Vmconfig.parse text with
    | Ok _ -> Alcotest.failf "accepted bad config: %s" text
    | Error _ -> ()
  in
  expect_error "kernel = \"daytime\"\n";
  expect_error "name = \"x\"\n";
  expect_error "name = \"x\"\nkernel = \"k\"\nmemory = \"notanumber\"\n";
  expect_error "name = \"x\"\nkernel = \"k\"\nvif = [unquoted]\n";
  expect_error "name = \"x\"\nkernel = \"k\"\nbroken line\n"

let test_config_roundtrip () =
  match Vmconfig.parse sample_config with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok cfg -> (
      match Vmconfig.parse (Vmconfig.to_string cfg) with
      | Error msg -> Alcotest.failf "re-parse failed: %s" msg
      | Ok cfg2 ->
          Alcotest.(check bool) "round trip" true (cfg = cfg2))

let prop_config_roundtrip =
  let name_gen =
    QCheck.Gen.(
      map
        (fun s -> "g" ^ s)
        (string_size ~gen:(char_range 'a' 'z') (int_range 1 12)))
  in
  QCheck.Test.make ~name:"vmconfig to_string/parse round-trips" ~count:100
    (QCheck.make
       QCheck.Gen.(
         quad name_gen (int_range 1 512) (int_range 1 4) (int_range 0 3)))
    (fun (name, mem, vcpus, nics) ->
      let cfg =
        Vmconfig.make ~memory_mb:(float_of_int mem) ~vcpus
          ~vifs:(List.init nics (fun i -> Printf.sprintf "bridge=br%d" i))
          ~name ~kernel:"daytime" ()
      in
      Vmconfig.parse (Vmconfig.to_string cfg) = Ok cfg)

let test_config_comment_in_string () =
  match Vmconfig.parse "name = \"has#hash\"\nkernel = \"daytime\"\n" with
  | Ok cfg -> Alcotest.(check string) "hash kept" "has#hash" cfg.Vmconfig.name
  | Error msg -> Alcotest.failf "parse failed: %s" msg

(* ------------------------------------------------------------------ *)
(* Full creation pipeline *)

let make_host ?(mode = Mode.xl) ?platform () =
  let xen =
    match platform with
    | Some platform -> Xen.boot ~platform ()
    | None -> Xen.boot ()
  in
  Toolstack.make ~xen ~mode ()

let daytime_cfg ?(name = "guest-a") () =
  Vmconfig.for_image ~name Image.daytime

let test_create_mode mode =
  in_sim (fun () ->
      let ts = make_host ~mode () in
      let created = Toolstack.create_vm_exn ts (daytime_cfg ()) in
      Guest.wait_ready created.Create.guest;
      (* The VM is running with its devices connected. *)
      let dom =
        match Xen.domain (Toolstack.xen ts) ~domid:created.Create.domid with
        | Some dom -> dom
        | None -> Alcotest.fail "domain missing"
      in
      Alcotest.(check bool) "running" true (Domain.is_running dom);
      Alcotest.(check string) "named" "guest-a" (Domain.name dom);
      let vifs =
        List.filter
          (fun d ->
            d.Lightvm_guest.Device.kind = Lightvm_guest.Device.Vif)
          created.Create.devices
      in
      Alcotest.(check int) "one vif" 1 (List.length vifs);
      Alcotest.(check bool) "create time positive" true
        (created.Create.create_time > 0.);
      Alcotest.(check bool) "boot completed" true
        (Guest.booted created.Create.guest);
      Alcotest.(check bool)
        (Printf.sprintf "create sane for %s: %.1fms" (Mode.name mode)
           (created.Create.create_time *. 1000.))
        true
        (created.Create.create_time < 1.0);
      Toolstack.destroy_vm ts created;
      (* Let the chaos daemon finish any background shell refills, then
         only pool shells (split modes) may remain as domains. *)
      Engine.sleep 2.0;
      Alcotest.(check int) "only dom0 and shells remain"
        (Toolstack.shell_count ts)
        (Xen.guest_count (Toolstack.xen ts)))

let test_create_time_ordering =
  (* xl must be slowest; LightVM fastest. *)
  in_sim (fun () ->
      let time_for mode =
        let ts = make_host ~mode () in
        (* Warm the pool so split mode measures the execute phase. *)
        Toolstack.prefill_pool ts (daytime_cfg ());
        let created = Toolstack.create_vm_exn ts (daytime_cfg ()) in
        Guest.wait_ready created.Create.guest;
        created.Create.create_time
      in
      let t_xl = time_for Mode.xl in
      let t_chaos = time_for Mode.chaos_xs in
      let t_noxs = time_for Mode.chaos_noxs in
      let t_lightvm = time_for Mode.lightvm in
      let msg =
        Printf.sprintf "xl=%.1fms chaos=%.1fms noxs=%.1fms lightvm=%.2fms"
          (t_xl *. 1e3) (t_chaos *. 1e3) (t_noxs *. 1e3) (t_lightvm *. 1e3)
      in
      Alcotest.(check bool) ("xl slowest: " ^ msg) true
        (t_xl > t_chaos && t_chaos > t_noxs && t_noxs > t_lightvm);
      (* Order-of-magnitude targets from Fig 9. *)
      Alcotest.(check bool) ("xl ~100ms: " ^ msg) true
        (t_xl > 0.05 && t_xl < 0.3);
      Alcotest.(check bool) ("lightvm few ms: " ^ msg) true
        (t_lightvm < 0.01))

let test_breakdown_accounts_time =
  in_sim (fun () ->
      let ts = make_host ~mode:Mode.xl () in
      let created = Toolstack.create_vm_exn ts (daytime_cfg ()) in
      let b = created.Create.breakdown in
      let total = Create.breakdown_total b in
      Alcotest.(check bool) "categories sum close to create time" true
        (Float.abs (total -. created.Create.create_time)
        < 0.2 *. created.Create.create_time);
      (* Devices (hotplug scripts) dominate for xl at low density. *)
      Alcotest.(check bool) "devices large" true
        (Create.breakdown_get b Create.Cat_devices
        > 0.3 *. total))

let test_min_memory_floor =
  in_sim (fun () ->
      (* Without the patch the toolstack rounds 3.6 MB up to 4 MB. *)
      let ts = make_host ~mode:Mode.xl () in
      let created = Toolstack.create_vm_exn ts (daytime_cfg ()) in
      Guest.wait_ready created.Create.guest;
      let kb =
        Xen.domain_mem_kb (Toolstack.xen ts) ~domid:created.Create.domid
      in
      Alcotest.(check bool)
        (Printf.sprintf "at least 4MB (%d kb)" kb)
        true (kb >= 4096);
      (* With the patch, 3.6 MB runs as 3.6 MB. *)
      let ts2 = make_host ~mode:Mode.chaos_noxs () in
      let created2 = Toolstack.create_vm_exn ts2 (daytime_cfg ()) in
      Guest.wait_ready created2.Create.guest;
      let kb2 =
        Xen.domain_mem_kb (Toolstack.xen ts2) ~domid:created2.Create.domid
      in
      Alcotest.(check bool)
        (Printf.sprintf "under 4MB+overhead (%d kb)" kb2)
        true
        (kb2 < 4096))

let test_create_from_config_text =
  in_sim (fun () ->
      let ts = make_host ~mode:Mode.chaos_xs () in
      let cfg = daytime_cfg () in
      let text = Vmconfig.to_string cfg in
      let created = Toolstack.create_vm_exn ts ~config_text:text cfg in
      Guest.wait_ready created.Create.guest;
      Alcotest.(check string) "name from text" "guest-a"
        created.Create.vm_name)

let test_create_bad_kernel =
  in_sim (fun () ->
      let ts = make_host ~mode:Mode.chaos_xs () in
      let cfg = Vmconfig.make ~name:"x" ~kernel:"no-such-kernel" () in
      match Toolstack.create_vm ts cfg with
      | Error msg ->
          Alcotest.(check bool) "mentions kernel" true
            (String.length msg > 0)
      | Ok _ -> Alcotest.fail "bad kernel accepted")

let test_duplicate_names_rejected_xl =
  in_sim (fun () ->
      let ts = make_host ~mode:Mode.xl () in
      let c1 = Toolstack.create_vm_exn ts (daytime_cfg ~name:"dup" ()) in
      Guest.wait_ready c1.Create.guest;
      match Toolstack.create_vm ts (daytime_cfg ~name:"dup" ()) with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "duplicate name accepted")

(* ------------------------------------------------------------------ *)
(* Pool *)

let test_pool_basics =
  in_sim (fun () ->
      let built = ref 0 in
      let pool =
        Pool.create ~target:3 ~make:(fun () ->
            incr built;
            Engine.sleep 0.010;
            !built)
      in
      Pool.prefill pool;
      Alcotest.(check int) "prefilled" 3 (Pool.size pool);
      let t0 = Engine.now () in
      let shell = Pool.take pool in
      Alcotest.(check int) "fifo" 1 shell;
      Alcotest.(check bool) "take is instant" true (Engine.now () = t0);
      (* Background refill tops the pool back up. *)
      Engine.sleep 0.1;
      Alcotest.(check int) "refilled" 3 (Pool.size pool))

let test_pool_empty_fallback =
  in_sim (fun () ->
      let pool =
        Pool.create ~target:2 ~make:(fun () ->
            Engine.sleep 0.005;
            ())
      in
      (* Never prefilled: falls back to synchronous builds. *)
      let t0 = Engine.now () in
      Pool.take pool;
      Alcotest.(check bool) "paid for the build" true
        (Engine.now () -. t0 >= 0.005))

let test_split_uses_pool =
  in_sim (fun () ->
      let ts = make_host ~mode:Mode.lightvm () in
      let cfg = daytime_cfg () in
      Toolstack.prefill_pool ts cfg;
      let with_pool = (Toolstack.create_vm_exn ts cfg).Create.create_time in
      (* A fresh host without prefilling pays prepare inline on first
         create. *)
      let ts2 = make_host ~mode:Mode.chaos_noxs () in
      let without =
        (Toolstack.create_vm_exn ts2 (daytime_cfg ())).Create.create_time
      in
      Alcotest.(check bool)
        (Printf.sprintf "split faster (%.2fms vs %.2fms)"
           (with_pool *. 1e3) (without *. 1e3))
        true (with_pool < without))

(* ------------------------------------------------------------------ *)
(* Checkpoint and migrate *)

let test_save_restore =
  in_sim (fun () ->
      let ts = make_host ~mode:Mode.lightvm () in
      let created = Toolstack.create_vm_exn ts (daytime_cfg ()) in
      Guest.wait_ready created.Create.guest;
      let t0 = Engine.now () in
      let saved = Checkpoint.save ts created in
      let t_save = Engine.now () -. t0 in
      Alcotest.(check int) "gone after save" (Toolstack.shell_count ts)
        (Xen.guest_count (Toolstack.xen ts));
      Alcotest.(check string) "saved name" "guest-a"
        (Checkpoint.saved_name saved);
      let t1 = Engine.now () in
      let restored = Checkpoint.restore ts saved in
      Guest.wait_ready restored.Create.guest;
      let t_restore = Engine.now () -. t1 in
      Alcotest.(check int) "back after restore"
        (1 + Toolstack.shell_count ts)
        (Xen.guest_count (Toolstack.xen ts));
      Alcotest.(check bool)
        (Printf.sprintf "LightVM save ~30ms (%.1fms)" (t_save *. 1e3))
        true
        (t_save > 0.015 && t_save < 0.06);
      Alcotest.(check bool)
        (Printf.sprintf "LightVM restore ~20ms (%.1fms)" (t_restore *. 1e3))
        true
        (t_restore > 0.008 && t_restore < 0.05))

let test_save_restore_xl_slower =
  in_sim (fun () ->
      let run mode =
        let ts = make_host ~mode () in
        let created = Toolstack.create_vm_exn ts (daytime_cfg ()) in
        Guest.wait_ready created.Create.guest;
        let t0 = Engine.now () in
        let saved = Checkpoint.save ts created in
        let t_save = Engine.now () -. t0 in
        let t1 = Engine.now () in
        let restored = Checkpoint.restore ts saved in
        Guest.wait_ready restored.Create.guest;
        (t_save, Engine.now () -. t1)
      in
      let xl_save, xl_restore = run Mode.xl in
      let lv_save, lv_restore = run Mode.lightvm in
      Alcotest.(check bool)
        (Printf.sprintf "saves: xl %.0fms vs lightvm %.0fms"
           (xl_save *. 1e3) (lv_save *. 1e3))
        true
        (xl_save > 2. *. lv_save);
      Alcotest.(check bool)
        (Printf.sprintf "restores: xl %.0fms vs lightvm %.0fms"
           (xl_restore *. 1e3) (lv_restore *. 1e3))
        true
        (xl_restore > 5. *. lv_restore))

let test_migrate =
  in_sim (fun () ->
      let src = make_host ~mode:Mode.lightvm () in
      let dst = make_host ~mode:Mode.lightvm () in
      let created = Toolstack.create_vm_exn src (daytime_cfg ()) in
      Guest.wait_ready created.Create.guest;
      let resumed, stats = Migrate.migrate ~src ~dst created in
      Guest.wait_ready resumed.Create.guest;
      Alcotest.(check int) "source empty" (Toolstack.shell_count src)
        (Xen.guest_count (Toolstack.xen src));
      Alcotest.(check int) "destination has it"
        (1 + Toolstack.shell_count dst)
        (Xen.guest_count (Toolstack.xen dst));
      Alcotest.(check string) "same name" "guest-a" resumed.Create.vm_name;
      Alcotest.(check bool)
        (Printf.sprintf "LightVM migration ~60ms (%.1fms)"
           (stats.Migrate.total *. 1e3))
        true
        (stats.Migrate.total > 0.03 && stats.Migrate.total < 0.12);
      Alcotest.(check bool) "transfer part accounted" true
        (stats.Migrate.transfer > 0.))

(* ------------------------------------------------------------------ *)
(* Leak soak *)

(* Domids are never reused, so any table that keeps a per-domid entry
   after the VM is gone grows the live set with every lifecycle ever
   run (the host's VM registry, a path cache, an ownership count left
   at zero, a watch-trie node). Create, boot and delete a one-vif guest
   through the lifecycle API on one chaos [XS] host, 500 times and then
   1,500 more, and compact before each reading: the live set after
   2,000 lifecycles must equal the one after 500 up to a constant well
   under one word per lifecycle. *)
let test_xenstore_live_set_flat =
  in_sim (fun () ->
      let host = Vmm.create ~mode:Mode.chaos_xs () in
      let lifecycles n =
        for _ = 1 to n do
          Vmm_boot.delete host ~domid:(Vmm_boot.boot host Image.daytime)
        done
      in
      let live_words () =
        Gc.compact ();
        (Gc.stat ()).Gc.live_words
      in
      lifecycles 500;
      let after_500 = live_words () in
      lifecycles 1500;
      let after_2000 = live_words () in
      (* Reading [host] after the second compaction keeps it, and so its
         registry, reachable through both readings. *)
      Alcotest.(check int) "no VM left" 0 (Vmm.vm_count host);
      Alcotest.(check bool)
        (Printf.sprintf "live words after 500 and 2,000 lifecycles: %d, %d"
           after_500 after_2000)
        true
        (after_2000 - after_500 <= 1_000))

(* A completed create, boot and delete releases everything it acquired,
   in every mode and device shape. A warm-up lifecycle runs first: the
   first creation on a fresh host materialises shared store directories
   (/vm, the backend kind levels) that persist for the host's lifetime.
   After it, the host's resource counts — XenStore nodes and watches
   included — must return exactly to their pre-create values. Each
   lifecycle is followed by a simulated second of idling, so a split
   toolstack's background refill has put back the shell the creation
   took before the counts are read. *)
let test_lifecycle_leak_free () =
  List.iter
    (fun mode ->
      List.iter
        (fun (nics, disks) ->
          ignore
            (Engine.run (fun () ->
                 let host = Vmm.create ~mode () in
                 let lifecycle () =
                   let vi =
                     Vmm_boot.ok "vm_create"
                       (Vmm.vm_create host
                          (Vmm.vm_request ~nics ~disks Image.daytime))
                   in
                   let domid = vi.Vmm.vi_domid in
                   Vmm_boot.ok "vm_boot" (Vmm.vm_boot host ~domid);
                   Vmm_boot.delete host ~domid;
                   Engine.sleep 1.
                 in
                 lifecycle ();
                 let before = Vmm.resources host in
                 lifecycle ();
                 (match Vmm.check_leak host ~before with
                 | Ok () -> ()
                 | Error leaked ->
                     Alcotest.failf "%s, %d nic(s), %d disk(s): leaked %s"
                       (Mode.name mode) nics disks leaked);
                 Engine.stop ())))
        [ (0, 0); (1, 0); (1, 1) ])
    Mode.all_modes

(* ------------------------------------------------------------------ *)
(* Names and MACs are built without [Printf]; they must read exactly as
   the format strings they replace. *)

let test_fresh_mac () =
  let backend =
    Backend.create ~xen:(Xen.boot ()) ~xs:None
      ~ctrl:(Lightvm_guest.Ctrl.create ()) ~costs:Costs.default
  in
  let checked = [ 1; 255; 256; 65_535; 65_536; 0xffffff; 0x1000000 ] in
  let last = List.fold_left max 0 checked in
  for n = 1 to last do
    let mac = Backend.fresh_mac backend in
    if List.mem n checked then
      Alcotest.(check string)
        (Printf.sprintf "mac %d" n)
        (Printf.sprintf "00:16:3e:%02x:%02x:%02x"
           ((n lsr 16) land 0xff)
           ((n lsr 8) land 0xff)
           (n land 0xff))
        mac
  done

(* The process names a warm-pool serverless run spawns; the benchmark's
   probe maps them to layers. *)
let test_spawn_names () =
  let names = ref [] in
  Engine.set_trace_hooks
    (Some
       {
         Engine.on_spawn = (fun ~pid:_ ~name -> names := name :: !names);
         on_park = (fun ~pid:_ -> ());
         on_wake = (fun ~pid:_ -> ());
       });
  let stats =
    Fun.protect
      ~finally:(fun () -> Engine.set_trace_hooks None)
      (fun () ->
        let result = ref None in
        ignore
          (Engine.run (fun () ->
               let host = Vmm.create ~mode:Mode.lightvm () in
               let cfg =
                 Serverless.default_config ~duration:0.05 Serverless.Warm_pool
               in
               result := Some (Serverless.run_node cfg host);
               Engine.stop ()));
        Option.get !result)
  in
  let names = List.rev !names in
  let count p = List.length (List.filter p names) in
  let numbered prefix name =
    String.starts_with ~prefix name
    &&
    let rest =
      String.sub name (String.length prefix)
        (String.length name - String.length prefix)
    in
    rest <> "" && String.for_all (fun c -> c >= '0' && c <= '9') rest
  in
  Alcotest.(check int)
    "one fn-<idx> per request" stats.Serverless.requests
    (count (numbered "fn-"));
  List.iteri
    (fun i name ->
      Alcotest.(check string) "fn names in dispatch order"
        ("fn-" ^ string_of_int i) name)
    (List.filter (numbered "fn-") names);
  Alcotest.(check bool) "guest-<domid> boots" true
    (count (numbered "guest-") >= stats.Serverless.requests);
  Alcotest.(check bool) "refill daemon" true
    (List.mem "chaos-daemon-refill" names)

let suites =
  [
    ( "toolstack.vmconfig",
      [
        Alcotest.test_case "parse" `Quick test_config_parse;
        Alcotest.test_case "errors" `Quick test_config_errors;
        Alcotest.test_case "round trip" `Quick test_config_roundtrip;
        Alcotest.test_case "hash in string" `Quick
          test_config_comment_in_string;
        QCheck_alcotest.to_alcotest prop_config_roundtrip;
      ] );
    ( "toolstack.create",
      [
        Alcotest.test_case "xl mode" `Quick (test_create_mode Mode.xl);
        Alcotest.test_case "chaos [XS]" `Quick
          (test_create_mode Mode.chaos_xs);
        Alcotest.test_case "chaos [XS+split]" `Quick
          (test_create_mode Mode.chaos_xs_split);
        Alcotest.test_case "chaos [NoXS]" `Quick
          (test_create_mode Mode.chaos_noxs);
        Alcotest.test_case "LightVM" `Quick (test_create_mode Mode.lightvm);
        Alcotest.test_case "mode ordering" `Quick test_create_time_ordering;
        Alcotest.test_case "breakdown" `Quick test_breakdown_accounts_time;
        Alcotest.test_case "4MB floor" `Quick test_min_memory_floor;
        Alcotest.test_case "create from text" `Quick
          test_create_from_config_text;
        Alcotest.test_case "bad kernel" `Quick test_create_bad_kernel;
        Alcotest.test_case "duplicate names (xl)" `Quick
          test_duplicate_names_rejected_xl;
      ] );
    ( "toolstack.pool",
      [
        Alcotest.test_case "basics" `Quick test_pool_basics;
        Alcotest.test_case "empty fallback" `Quick test_pool_empty_fallback;
        Alcotest.test_case "split uses pool" `Quick test_split_uses_pool;
      ] );
    ( "toolstack.checkpoint",
      [
        Alcotest.test_case "save/restore" `Quick test_save_restore;
        Alcotest.test_case "xl slower" `Quick test_save_restore_xl_slower;
        Alcotest.test_case "migrate" `Quick test_migrate;
      ] );
    ( "toolstack.soak",
      [
        Alcotest.test_case "XenStore live set flat over lifecycles" `Quick
          test_xenstore_live_set_flat;
        Alcotest.test_case "lifecycle leak-free in every mode" `Quick
          test_lifecycle_leak_free;
      ] );
    ( "toolstack.names",
      [
        Alcotest.test_case "fresh_mac = the old format" `Quick test_fresh_mac;
        Alcotest.test_case "spawn names" `Quick test_spawn_names;
      ] );
  ]
