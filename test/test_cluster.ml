(* The cluster control plane: each host's VM registry through every
   lifecycle operation, scheduler policy shapes (binpack fills host 0
   first; spread never co-locates in a failure domain while an empty
   one has capacity), a qcheck property holding the one-pass placement
   to a list-based reference, its allocation flat in the host count,
   the partition layout a cluster takes from its run, drain/rebalance
   under injected migration corruption with exact loss accounting, and
   a qcheck property pinning that the whole cluster experiment family
   is a pure function of its seed — identical placement and digests for
   any --jobs. *)

module Engine = Lightvm_sim.Engine
module Fault = Lightvm_sim.Fault
module Mode = Lightvm_toolstack.Mode
module Image = Lightvm_guest.Image
module Vmm = Lightvm_cluster.Vmm
module Xen = Lightvm_hv.Xen
module Scheduler = Lightvm_cluster.Scheduler
module Cluster = Lightvm_cluster.Cluster
module Switch = Lightvm_net.Switch

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

let launch_or_fail c =
  match Cluster.launch c (Vmm.vm_request ~nics:1 Image.daytime) with
  | Error e -> Alcotest.failf "launch: %s" (Cluster.error_to_string e)
  | Ok p -> (
      match
        Vmm.vm_boot (Cluster.host c p.Cluster.pl_host)
          ~domid:p.Cluster.pl_vm.Vmm.vi_domid
      with
      | Ok () -> p
      | Error e -> Alcotest.failf "boot: %s" (Vmm.error_to_string e))

let vms_per_host c =
  List.map (fun (v : Scheduler.host_view) -> v.Scheduler.hv_vms)
    (Cluster.views c)

(* ------------------------------------------------------------------ *)
(* The per-host VM registry *)

let expect_not_found what domid = function
  | Error (Vmm.Vm_not_found d) when d = domid -> ()
  | Error e -> Alcotest.failf "%s: %s" what (Vmm.error_to_string e)
  | Ok _ -> Alcotest.failf "%s: domid %d still answers" what domid

let state_name = function
  | Vmm.Created -> "created"
  | Vmm.Running -> "running"
  | Vmm.Paused -> "paused"

let check_state what want domid host =
  let vi = Vmm_boot.ok what (Vmm.vm_info host ~domid) in
  Alcotest.(check string) what (state_name want) (state_name vi.Vmm.vi_state)

(* One VM walked through every operation that moves it in or out of a
   host's registry: each leaves it on exactly one host, under the domid
   that host answers to, or on none once it is lost. *)
let test_registry_lifecycle () =
  run_sim (fun () ->
      let a = Vmm.create ~host_id:0 ~mode:Mode.lightvm () in
      let b = Vmm.create ~host_id:1 ~mode:Mode.lightvm () in
      let domid = Vmm_boot.boot a Image.daytime in
      Alcotest.(check int) "created and booted" 1 (Vmm.vm_count a);
      check_state "booted" Vmm.Running domid a;
      let saved = Vmm_boot.ok "vm_snapshot" (Vmm.vm_snapshot a ~domid) in
      Alcotest.(check int) "snapshotted" 0 (Vmm.vm_count a);
      expect_not_found "vm_info after vm_snapshot" domid
        (Vmm.vm_info a ~domid);
      let vi = Vmm_boot.ok "vm_restore" (Vmm.vm_restore a saved) in
      let restored = vi.Vmm.vi_domid in
      if restored = domid then
        Alcotest.failf "restore reused domid %d" domid;
      check_state "restored" Vmm.Created restored a;
      Vmm_boot.ok "vm_boot" (Vmm.vm_boot a ~domid:restored);
      check_state "restored and booted" Vmm.Running restored a;
      Alcotest.(check (list int))
        "vm_list after restore" [ restored ]
        (List.map (fun (v : Vmm.vm_info) -> v.Vmm.vi_domid) (Vmm.vm_list a));
      let vi, _ =
        Vmm_boot.ok "vm_migrate" (Vmm.vm_migrate ~src:a ~dst:b ~domid:restored)
      in
      let moved = vi.Vmm.vi_domid in
      expect_not_found "source after vm_migrate" restored
        (Vmm.vm_info a ~domid:restored);
      Alcotest.(check int) "source after vm_migrate" 0 (Vmm.vm_count a);
      Alcotest.(check int) "destination after vm_migrate" 1 (Vmm.vm_count b);
      Vmm_boot.ok "vm_boot" (Vmm.vm_boot b ~domid:moved);
      let injector = Fault.create ~seed:1L (spec_of_string "migrate.corrupt:1") in
      (match
         Fault.with_injector injector (fun () ->
             Vmm.vm_migrate ~src:b ~dst:a ~domid:moved)
       with
      | Error (Vmm.Vm_migration_failed _) -> ()
      | Error e ->
          Alcotest.failf "corrupted migration: %s" (Vmm.error_to_string e)
      | Ok _ -> Alcotest.fail "migration survived migrate.corrupt:1");
      expect_not_found "source after a lost migration" moved
        (Vmm.vm_info b ~domid:moved);
      Alcotest.(check (pair int int))
        "lost: on neither host" (0, 0)
        (Vmm.vm_count a, Vmm.vm_count b);
      expect_not_found "vm_delete of a missing domid" moved
        (Vmm.vm_delete b ~domid:moved))

(* The registry holds a VM exactly when its domain exists: the
   registered domids are the host's guest domains, less the split
   toolstack's pre-created shells. *)
let check_registry what host =
  Alcotest.(check (list int))
    (what ^ ": registry = domains")
    (Vmm_boot.guest_domids host)
    (List.map (fun (v : Vmm.vm_info) -> v.Vmm.vi_domid) (Vmm.vm_list host))

(* Snapshot, restore and migration of a booted guest on each XenStore
   mode, with every store quota check or every transaction commit
   failing: each call returns a value (a restore always an error), after
   each the registries match the domains, and a failed migration
   reports the guest lost exactly when its source domain is gone. *)
let test_no_raise_under_xs_faults () =
  List.iter
    (fun mode ->
      List.iter
        (fun spec ->
          let call op f =
            let what =
              Printf.sprintf "%s under %s on %s" op spec (Mode.name mode)
            in
            let injector = Fault.create ~seed:1L (spec_of_string spec) in
            match Fault.with_injector injector f with
            | result -> (what, result)
            | exception e ->
                Alcotest.failf "%s raised %s" what (Printexc.to_string e)
          in
          run_sim (fun () ->
              let host = Vmm.create ~mode () in
              let domid = Vmm_boot.boot host Image.daytime in
              let what, _ = call "vm_snapshot" (fun () ->
                  Vmm.vm_snapshot host ~domid)
              in
              check_registry what host;
              let host = Vmm.create ~mode () in
              let domid = Vmm_boot.boot host Image.daytime in
              let saved =
                Vmm_boot.ok "vm_snapshot" (Vmm.vm_snapshot host ~domid)
              in
              let what, restored = call "vm_restore" (fun () ->
                  Vmm.vm_restore host saved)
              in
              Alcotest.(check bool) (what ^ ": refused") true
                (Result.is_error restored);
              check_registry what host;
              let src = Vmm.create ~host_id:0 ~mode () in
              let dst = Vmm.create ~host_id:1 ~mode () in
              let domid = Vmm_boot.boot src Image.daytime in
              let what, result = call "vm_migrate" (fun () ->
                  Vmm.vm_migrate ~src ~dst ~domid)
              in
              check_registry (what ^ ", source") src;
              check_registry (what ^ ", destination") dst;
              match result with
              | Ok _ -> ()
              | Error e ->
                  Alcotest.(check bool)
                    (what ^ ": guest lost = source domain gone")
                    (Option.is_none (Xen.domain (Vmm.xen src) ~domid))
                    (match e with
                    | Vmm.Vm_migration_failed _ -> true
                    | _ -> false)))
        [ "xs.equota:1"; "xs.eagain:1" ])
    [ Mode.xl; Mode.chaos_xs; Mode.chaos_xs_split ]

(* ------------------------------------------------------------------ *)
(* Scheduler policies through the control plane *)

let test_binpack_fills_host0 () =
  let counts =
    run_sim (fun () ->
        let c =
          Cluster.create ~hosts:4 ~mode:Mode.chaos_xs
            ~policy:Scheduler.Binpack ()
        in
        for _ = 1 to 10 do
          ignore (launch_or_fail c)
        done;
        vms_per_host c)
  in
  Alcotest.(check (list int))
    "all on host 0 while it fits" [ 10; 0; 0; 0 ] counts

let test_spread_respects_failure_domains () =
  run_sim (fun () ->
      (* 8 hosts in 4 racks: the first 4 guests must land in 4 distinct
         racks, and 8 guests must end up one per host. *)
      let c =
        Cluster.create ~hosts:8 ~racks:4 ~mode:Mode.chaos_xs
          ~policy:Scheduler.Spread ()
      in
      for i = 1 to 8 do
        ignore (launch_or_fail c);
        let by_rack = Hashtbl.create 4 in
        List.iter
          (fun (v : Scheduler.host_view) ->
            let r = v.Scheduler.hv_rack in
            Hashtbl.replace by_rack r
              (v.Scheduler.hv_vms
              + Option.value ~default:0 (Hashtbl.find_opt by_rack r)))
          (Cluster.views c);
        let racks = Hashtbl.fold (fun _ n acc -> n :: acc) by_rack [] in
        let occupied = List.length (List.filter (fun n -> n > 0) racks) in
        let doubled = List.exists (fun n -> n >= 2) racks in
        if doubled && occupied < 4 then
          Alcotest.failf
            "after %d guests: a rack holds 2 VMs while an empty rack \
             remains"
            i
      done;
      Alcotest.(check (list int))
        "8 guests end up one per host"
        [ 1; 1; 1; 1; 1; 1; 1; 1 ]
        (vms_per_host c))

let test_scheduler_no_capacity () =
  let views =
    [
      { Scheduler.hv_id = 0; hv_rack = 0; hv_vms = 3; hv_free_kb = 64 };
      { Scheduler.hv_id = 1; hv_rack = 0; hv_vms = 0; hv_free_kb = 128 };
    ]
  in
  List.iter
    (fun policy ->
      let s = Scheduler.make policy in
      (match Scheduler.place s ~hosts:[] ~mem_kb:0 with
      | Ok id ->
          Alcotest.failf "%s placed on %d in an empty cluster"
            (Scheduler.policy_name policy)
            id
      | Error _ -> ());
      (match Scheduler.place s ~hosts:views ~mem_kb:100_000 with
      | Ok id ->
          Alcotest.failf "%s placed on %d with no capacity"
            (Scheduler.policy_name policy)
            id
      | Error _ -> ());
      match Scheduler.place s ~hosts:views ~mem_kb:100 with
      | Ok 1 -> ()
      | Ok id ->
          Alcotest.failf "%s: expected host 1 (only fit), got %d"
            (Scheduler.policy_name policy)
            id
      | Error e ->
          Alcotest.failf "%s: feasible placement refused: %s"
            (Scheduler.policy_name policy)
            e)
    Scheduler.policies

(* The list-based placement — filter the feasible hosts, then minimise
   a tuple key with polymorphic compare (spread recomputing a rack's
   load inside every key) — kept as the reference the one-pass
   [Scheduler.place] must agree with. *)
module Reference = struct
  open Scheduler

  type t = { pol : policy; mutable cursor : int }

  let make pol = { pol; cursor = 0 }

  (* Pick the view minimising [key] (hosts can arrive in any order, so
     the id is always the last tie-breaker). *)
  let min_by key feasible =
    List.fold_left
      (fun best h ->
        match best with
        | None -> Some h
        | Some b -> if compare (key h) (key b) < 0 then Some h else best)
      None feasible

  let place t ~hosts ~mem_kb =
    let feasible = List.filter (fun h -> h.hv_free_kb >= mem_kb) hosts in
    match feasible with
    | [] ->
        Error
          (Printf.sprintf "no host with %d kB free (cluster of %d)" mem_kb
             (List.length hosts))
    | _ -> (
        match t.pol with
        | Binpack ->
            (* Tightest fit: least free memory, then lowest id. *)
            let chosen =
              min_by (fun h -> (h.hv_free_kb, h.hv_id)) feasible
            in
            Ok (Option.get chosen).hv_id
        | Spread ->
            (* Least-loaded rack first (failure-domain spreading), then
               least-loaded host, then most free memory, then id. *)
            let rack_vms rack =
              List.fold_left
                (fun acc h -> if h.hv_rack = rack then acc + h.hv_vms else acc)
                0 hosts
            in
            let chosen =
              min_by
                (fun h -> (rack_vms h.hv_rack, h.hv_vms, -h.hv_free_kb, h.hv_id))
                feasible
            in
            Ok (Option.get chosen).hv_id
        | Pool_everywhere ->
            (* Round-robin over host ids, skipping infeasible hosts: the
               cursor walks the id space so consecutive VMs land on
               consecutive warm pools. *)
            let sorted =
              List.sort (fun a b -> compare a.hv_id b.hv_id) feasible
            in
            let chosen =
              match List.find_opt (fun h -> h.hv_id >= t.cursor) sorted with
              | Some h -> h
              | None -> List.hd sorted
            in
            t.cursor <- chosen.hv_id + 1;
            Ok chosen.hv_id)
end

(* Random clusters: 0-12 hosts in shuffled order with unique, gapped
   ids, racks 0..7 (gaps too), and loads and free memory drawn from a
   few values so ties are common. Each case is a sequence of calls
   sharing one scheduler per policy (the round-robin cursor carries
   over); a call may drop one host from the list, as drain does with
   its source, and requests up to 320 kB against at most 256 kB free,
   so infeasible hosts and refusals occur. A placement is applied to
   the views, as the cluster planner does. *)
let gen_placement_case =
  let open QCheck.Gen in
  let* n = int_range 0 12 in
  let* ids = shuffle_l (List.init (3 * n) Fun.id) in
  let* views =
    flatten_l
      (List.map
         (fun hv_id ->
           map3
             (fun hv_rack hv_vms free ->
               { Scheduler.hv_id; hv_rack; hv_vms; hv_free_kb = 64 * free })
             (int_range 0 7) (int_range 0 3) (int_range 0 4))
         (List.filteri (fun i _ -> i < n) ids))
  in
  let* calls =
    list_size (int_range 1 10)
      (pair (map (( * ) 64) (int_range 0 5)) (opt small_nat))
  in
  return (views, calls)

let print_placement_case (views, calls) =
  let view (v : Scheduler.host_view) =
    Printf.sprintf "{id %d; rack %d; vms %d; free %d}" v.Scheduler.hv_id
      v.Scheduler.hv_rack v.Scheduler.hv_vms v.Scheduler.hv_free_kb
  in
  let call (mem_kb, drop) =
    match drop with
    | None -> Printf.sprintf "%d kB" mem_kb
    | Some i -> Printf.sprintf "%d kB without #%d" mem_kb i
  in
  Printf.sprintf "views [%s]; calls [%s]"
    (String.concat "; " (List.map view views))
    (String.concat "; " (List.map call calls))

let prop_place_matches_reference =
  QCheck.Test.make ~name:"place = list-based reference, every policy"
    ~count:2000
    (QCheck.make ~print:print_placement_case gen_placement_case)
    (fun (views, calls) ->
      List.for_all
        (fun policy ->
          let s = Scheduler.make policy and r = Reference.make policy in
          let views = ref views in
          List.for_all
            (fun (mem_kb, drop) ->
              let hosts =
                match drop with
                | Some i when !views <> [] ->
                    let i = i mod List.length !views in
                    List.filteri (fun j _ -> j <> i) !views
                | _ -> !views
              in
              let got = Scheduler.place s ~hosts ~mem_kb in
              let want = Reference.place r ~hosts ~mem_kb in
              (match got with
              | Ok id ->
                  views :=
                    List.map
                      (fun (v : Scheduler.host_view) ->
                        if v.Scheduler.hv_id = id then
                          {
                            v with
                            Scheduler.hv_vms = v.Scheduler.hv_vms + 1;
                            hv_free_kb = v.Scheduler.hv_free_kb - mem_kb;
                          }
                        else v)
                      !views
              | Error _ -> ());
              got = want)
            calls)
        Scheduler.policies)

(* A placement allocates the same few words (its closures, the rack
   loads, the result) whatever the cluster size: nothing per host. *)
let test_place_allocation_flat () =
  let views n =
    List.init n (fun i ->
        {
          Scheduler.hv_id = i;
          hv_rack = i mod 4;
          hv_vms = i mod 7;
          hv_free_kb = 1024 * (i mod 5);
        })
  in
  let words_per_call policy hosts =
    let s = Scheduler.make policy in
    let before = Gc.minor_words () in
    for _ = 1 to 100 do
      ignore (Scheduler.place s ~hosts ~mem_kb:1024)
    done;
    (Gc.minor_words () -. before) /. 100.
  in
  let small = views 10 and large = views 1000 in
  List.iter
    (fun policy ->
      let w10 = words_per_call policy small in
      let w1000 = words_per_call policy large in
      if w1000 > w10 +. 1. then
        Alcotest.failf
          "%s: %.1f words per placement over 1000 hosts, %.1f over 10"
          (Scheduler.policy_name policy)
          w1000 w10)
    Scheduler.policies

(* ------------------------------------------------------------------ *)
(* Partition layout: a cluster inside a run with host partitions gives
   host [i] partition [i + 1], so the run must have one per host. *)

let test_create_needs_partition_per_host () =
  let create_in ~partitions ~hosts =
    let refused = ref None in
    ignore
      (Engine.run_partitioned ~lookahead:Switch.default_latency ~partitions
         (fun () ->
           (refused :=
              match
                Cluster.create ~hosts ~mode:Mode.chaos_xs
                  ~policy:Scheduler.Spread ()
              with
              | _ -> Some false
              | exception Invalid_argument _ -> Some true);
           Engine.stop ()));
    match !refused with
    | Some r -> r
    | None -> Alcotest.fail "simulation did not complete"
  in
  Alcotest.(check bool)
    "4 hosts on 2 host partitions refused" true
    (create_in ~partitions:2 ~hosts:4);
  Alcotest.(check bool)
    "4 hosts on 4 host partitions accepted" false
    (create_in ~partitions:4 ~hosts:4)

(* ------------------------------------------------------------------ *)
(* Drain under injected migration corruption: losses are accounted,
   never leaked. *)

let test_drain_under_fault_leak_free () =
  let spec = spec_of_string "migrate.corrupt:0.6" in
  let injector = Fault.create ~seed:42L spec in
  run_sim (fun () ->
      let c =
        Cluster.create ~hosts:4 ~racks:4 ~mode:Mode.chaos_xs
          ~policy:Scheduler.Spread ()
      in
      for _ = 1 to 20 do
        ignore (launch_or_fail c)
      done;
      let before = Cluster.resources c in
      let drain =
        Fault.with_injector injector (fun () -> Cluster.drain c ~host:0)
      in
      Alcotest.(check int)
        "host 0 drained" 0
        (Vmm.vm_count (Cluster.host c 0));
      Alcotest.(check int) "nothing stranded" 0 drain.Cluster.mv_stranded;
      if drain.Cluster.mv_lost < 1 then
        Alcotest.fail
          "expected at least one guest lost to migrate.corrupt at this \
           seed";
      Alcotest.(check int)
        "attempted = moved + lost" drain.Cluster.mv_attempted
        (drain.Cluster.mv_moved + drain.Cluster.mv_lost);
      let reb = Cluster.rebalance c () in
      let counts = vms_per_host c in
      let mx = List.fold_left max min_int counts in
      let mn = List.fold_left min max_int counts in
      if mx - mn > 1 then
        Alcotest.failf "rebalance left spread %d (%d moved)" (mx - mn)
          reb.Cluster.mv_moved;
      (* The loss-aware no-leak invariant: accounted resources (live +
         lost) match the pre-drain snapshot exactly. *)
      (match Cluster.check_leak c ~before with
      | Ok () -> ()
      | Error s -> Alcotest.failf "resource leak after drain: %s" s);
      if drain.Cluster.mv_lost > 0 then
        let lost = Cluster.lost_resources c in
        Alcotest.(check bool)
          "lost guests freed accounted memory" true
          (lost.Vmm.r_mem_kb > 0 && lost.Vmm.r_domains > 0))

(* ------------------------------------------------------------------ *)
(* Determinism: the cluster experiment family is a pure function of
   (n, spec, fault_seed) — same seed gives byte-identical renders (and
   therefore placements) whatever the jobs count. *)

let digest_of_run ~jobs ~seed =
  let spec = spec_of_string "migrate.corrupt:0.5" in
  Digest_manifest.(
    digest (render (Plan_run.run ~jobs ~n:24 ~spec ~fault_seed:seed "cluster")))

let prop_cluster_seed_determinism =
  QCheck.Test.make ~name:"same seed => same placement digest, any jobs"
    ~count:4
    QCheck.(make ~print:Int64.to_string Gen.(map Int64.of_int (int_bound 999)))
    (fun seed ->
      let sequential = digest_of_run ~jobs:1 ~seed in
      let parallel = digest_of_run ~jobs:4 ~seed in
      String.equal sequential parallel)

let test_distinct_seeds_distinct_outcomes () =
  (* Not a hard guarantee for arbitrary seed pairs, but these two must
     differ (different guests are lost in the drain) — a frozen injector
     would make this fail and silently weaken the qcheck property. *)
  let a = digest_of_run ~jobs:1 ~seed:1L in
  let b = digest_of_run ~jobs:1 ~seed:2L in
  if String.equal a b then
    Alcotest.fail "seeds 1 and 2 produced identical cluster timelines"

let suites =
  [
    ( "cluster.vmm",
      [
        Alcotest.test_case "one registry through every lifecycle" `Quick
          test_registry_lifecycle;
        Alcotest.test_case "no lifecycle call raises under XenStore faults"
          `Quick test_no_raise_under_xs_faults;
      ] );
    ( "cluster.partition",
      [
        Alcotest.test_case "a partitioned run needs one per host" `Quick
          test_create_needs_partition_per_host;
      ] );
    ( "cluster.scheduler",
      [
        Alcotest.test_case "binpack fills host 0 first" `Quick
          test_binpack_fills_host0;
        Alcotest.test_case "spread respects failure domains" `Quick
          test_spread_respects_failure_domains;
        Alcotest.test_case "no-capacity refusal" `Quick
          test_scheduler_no_capacity;
        QCheck_alcotest.to_alcotest prop_place_matches_reference;
        Alcotest.test_case "placement allocation independent of hosts"
          `Quick test_place_allocation_flat;
      ] );
    ( "cluster.drain",
      [
        Alcotest.test_case "drain under migrate.corrupt is leak-free"
          `Slow test_drain_under_fault_leak_free;
      ] );
    ( "cluster.determinism",
      [
        QCheck_alcotest.to_alcotest prop_cluster_seed_determinism;
        Alcotest.test_case "distinct seeds diverge" `Slow
          test_distinct_seeds_distinct_outcomes;
      ] );
  ]
