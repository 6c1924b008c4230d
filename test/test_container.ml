(* Tests for the container/process baselines. *)

module Engine = Lightvm_sim.Engine
module Rng = Lightvm_sim.Rng
module Params = Lightvm_hv.Params
module Machine = Lightvm_container.Machine
module Layers = Lightvm_container.Layers
module Docker = Lightvm_container.Docker
module Process = Lightvm_container.Process

let in_sim f () = ignore (Engine.run f)

(* ------------------------------------------------------------------ *)
(* Layers *)

let test_layer_sharing () =
  let store = Layers.create_store () in
  let added1 = Layers.pull store Layers.micropython_image in
  let added2 = Layers.pull store Layers.alpine_noop in
  Alcotest.(check bool) "first pull stores layers" true (added1 > 0);
  (* alpine base shared with micropython: only the tiny app layer new. *)
  Alcotest.(check bool)
    (Printf.sprintf "shared base free (added %d kb)" added2)
    true
    (added2 < 100);
  Alcotest.(check int) "pull is idempotent" 0
    (Layers.pull store Layers.micropython_image)

(* ------------------------------------------------------------------ *)
(* Docker *)

let test_docker_run_time =
  in_sim (fun () ->
      let machine = Machine.create () in
      let engine = Docker.create machine in
      let t0 = Engine.now () in
      (match Docker.run engine ~image:Layers.micropython_image () with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "run failed");
      let dt = Engine.now () -. t0 in
      (* "Docker containers start in around 200ms" (Fig 4). *)
      Alcotest.(check bool)
        (Printf.sprintf "docker run ~200ms (%.0fms)" (dt *. 1e3))
        true
        (dt > 0.1 && dt < 0.4))

let test_docker_pause_unpause =
  in_sim (fun () ->
      let machine = Machine.create () in
      let engine = Docker.create machine in
      match Docker.run engine ~image:Layers.alpine_noop () with
      | Error _ -> Alcotest.fail "run failed"
      | Ok c ->
          let t0 = Engine.now () in
          Docker.pause engine c;
          Alcotest.(check bool) "paused" true (Docker.is_paused c);
          Docker.unpause engine c;
          Alcotest.(check bool) "unpaused" false (Docker.is_paused c);
          let dt = Engine.now () -. t0 in
          Alcotest.(check bool)
            (Printf.sprintf "pause/unpause fast (%.1fms)" (dt *. 1e3))
            true (dt < 0.05))

let test_docker_memory_scaling =
  in_sim (fun () ->
      let machine = Machine.create () in
      let engine = Docker.create machine in
      let before = Docker.rss_kb engine in
      for _ = 1 to 100 do
        match Docker.run engine ~image:Layers.micropython_image () with
        | Ok _ -> ()
        | Error _ -> Alcotest.fail "run failed"
      done;
      let per_container = (Docker.rss_kb engine - before) / 100 in
      (* Fig 14: ~5 GB at 1000 containers -> ~4-5 MB each. *)
      Alcotest.(check bool)
        (Printf.sprintf "rss per container ~4MB (%d kb)" per_container)
        true
        (per_container > 3_000 && per_container < 6_000);
      Alcotest.(check bool) "thin pool reserved in chunks" true
        (Docker.reserved_kb engine >= 100 * 40 * 1024))

let test_docker_wedges_when_full =
  in_sim (fun () ->
      (* Small host: 4 GB; pool chunks are 8 GB so the first growth
         already fails. *)
      let platform = { Params.xeon_e5_1630 with Params.ram_mb = 4096 } in
      let machine = Machine.create ~platform () in
      let engine = Docker.create machine in
      (match Docker.run engine ~image:Layers.alpine_noop () with
      | Error Docker.Out_of_memory -> ()
      | Error Docker.Engine_wedged -> Alcotest.fail "wedged too early"
      | Ok _ -> Alcotest.fail "run should have failed");
      Alcotest.(check bool) "engine wedged" true (Docker.wedged engine);
      match Docker.run engine ~image:Layers.alpine_noop () with
      | Error Docker.Engine_wedged -> ()
      | _ -> Alcotest.fail "wedged engine accepted work")

let test_docker_stop_releases =
  in_sim (fun () ->
      let machine = Machine.create () in
      let engine = Docker.create machine in
      match Docker.run engine ~image:Layers.alpine_noop () with
      | Error _ -> Alcotest.fail "run failed"
      | Ok c ->
          let with_c = Docker.rss_kb engine in
          Docker.stop engine c;
          Alcotest.(check int) "running count" 0 (Docker.running engine);
          Alcotest.(check bool) "rss dropped" true
            (Docker.rss_kb engine < with_c))

(* ------------------------------------------------------------------ *)
(* Processes *)

let test_process_create_times =
  in_sim (fun () ->
      let machine = Machine.create () in
      let procs = Process.create machine ~rng:(Rng.create 42L) in
      let times =
        List.init 300 (fun _ ->
            let t0 = Engine.now () in
            Process.fork_exec procs ();
            Engine.now () -. t0)
      in
      let mean =
        List.fold_left ( +. ) 0. times /. float_of_int (List.length times)
      in
      let p90 = Percentile.linear times 90. in
      (* Paper: 3.5 ms average, 9 ms at the 90th percentile. *)
      Alcotest.(check bool)
        (Printf.sprintf "mean ~3.5ms (%.2fms)" (mean *. 1e3))
        true
        (mean > 0.002 && mean < 0.006);
      Alcotest.(check bool)
        (Printf.sprintf "p90 heavy tail (%.2fms)" (p90 *. 1e3))
        true
        (p90 > mean && p90 < 0.015);
      Alcotest.(check int) "rss accounted" (300 * 1_400) (Process.rss_kb procs))

let suites =
  [
    ( "container.layers",
      [ Alcotest.test_case "sharing" `Quick test_layer_sharing ] );
    ( "container.docker",
      [
        Alcotest.test_case "run time" `Quick test_docker_run_time;
        Alcotest.test_case "pause/unpause" `Quick
          test_docker_pause_unpause;
        Alcotest.test_case "memory scaling" `Quick
          test_docker_memory_scaling;
        Alcotest.test_case "wedges when full" `Quick
          test_docker_wedges_when_full;
        Alcotest.test_case "stop releases" `Quick
          test_docker_stop_releases;
      ] );
    ( "container.process",
      [
        Alcotest.test_case "create times" `Quick
          test_process_create_times;
      ] );
  ]
