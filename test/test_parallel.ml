(* Determinism of the parallel experiment runner, the Pool itself, and
   the heap's lazy-cancellation/compaction invariants. *)

module E = Lightvm.Experiment
module Pool = Lightvm_sim.Pool
module Heap = Lightvm_sim.Heap

(* ------------------------------------------------------------------ *)
(* Pool *)

let test_pool_order () =
  let items = List.init 40 Fun.id in
  Alcotest.(check (list int))
    "results in submission order"
    (List.map (fun x -> x * x) items)
    (Pool.run ~jobs:4 (List.map (fun x () -> x * x) items))

let test_pool_single_job_inline () =
  (* jobs = 1 must not spawn domains: the thunk runs on this domain. *)
  let self = Domain.self () in
  Alcotest.(check bool)
    "ran on the calling domain" true
    (List.hd (Pool.run ~jobs:1 [ (fun () -> Domain.self () = self) ]))

let test_pool_workers_are_domains () =
  let self = Domain.self () in
  let elsewhere =
    Pool.run ~jobs:2 (List.init 4 (fun _ () -> Domain.self () <> self))
  in
  Alcotest.(check bool)
    "jobs ran on worker domains" true
    (List.for_all Fun.id elsewhere)

exception Boom of int

let test_pool_exception () =
  let ran = Array.make 6 false in
  match
    Pool.run ~jobs:3
      (List.init 6 (fun i () ->
           ran.(i) <- true;
           if i = 2 || i = 4 then raise (Boom i)))
  with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom i ->
      (* First failure in submission order, after every job ran. *)
      Alcotest.(check int) "first failing job" 2 i;
      Alcotest.(check bool)
        "all jobs still ran" true
        (Array.for_all Fun.id ran)

(* ------------------------------------------------------------------ *)
(* Experiment plans: byte-identical output for any jobs count, and
   equal to the committed manifest (test/digests.txt). *)

module Manifest = Digest_manifest

let manifest = lazy (Manifest.load ())

let expect_line key actual =
  match List.assoc_opt key (Lazy.force manifest) with
  | None -> Alcotest.failf "test/digests.txt has no line %s" key
  | Some expected ->
      Alcotest.(check string)
        (Printf.sprintf "test/digests.txt line %s" key)
        expected actual

let test_plan_deterministic name plan () =
  let sequential = Manifest.render (E.run_plan ~jobs:1 plan) in
  let parallel = Manifest.render (E.run_plan ~jobs:4 plan) in
  if not (String.equal sequential parallel) then
    Alcotest.failf
      "%s: output with jobs=4 differs from jobs=1 (%d vs %d bytes)" name
      (String.length sequential) (String.length parallel);
  expect_line
    (Manifest.render_key name Manifest.sweep_n)
    (Manifest.digest sequential)

(* Every registry entry, at a scale small enough for the test suite. *)
let determinism_cases =
  List.map
    (fun (name, plan) ->
      Alcotest.test_case
        (Printf.sprintf "%s (%d job(s))" name
           (List.length plan.E.plan_jobs))
        `Slow
        (test_plan_deterministic name plan))
    (E.plans (Plan_run.args ~n:Manifest.sweep_n ()))

(* ------------------------------------------------------------------ *)
(* Regression pins: renders at larger scales, and the store dump.

   The indexed watch registry, persistent snapshots, typed paths and
   the engine's sleep fast path are host-cost optimisations only — if
   a pinned digest ever changes, simulated behaviour changed and the
   optimisation broke the modeled-cost invariant (see DESIGN.md
   "Scaling"). The jobs sweep above only compares a run with itself,
   so these lines are what catch a deterministic change of behaviour,
   such as a moved placement. *)

let test_digest_pinned ((id, n) as pin) () =
  expect_line (Manifest.render_key id n)
    (Manifest.digest (Manifest.render_pin pin))

(* Every node's value and permissions after three classic-path
   creations: the direct check that the toolstack, backends and
   frontends write the same store. *)
let test_xenstore_dump_pinned () =
  expect_line Manifest.xenstore_key
    (Manifest.digest (E.xenstore_dump ~count:Manifest.xenstore_count))

(* A registry entry added without a line, or a line left behind by a
   removed one, fails here; the digests are checked above. *)
let test_manifest_keys () =
  Alcotest.(check (list string))
    "test/digests.txt keys, in order"
    (List.map fst (Manifest.entries ()))
    (List.map fst (Lazy.force manifest))

(* ------------------------------------------------------------------ *)
(* Heap model: random push/pop/cancel against a naive reference,
   checking pop order and the live count (which drives compaction). *)

type op = Push of float | Pop | Cancel of int

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (* few distinct times, so seq tie-breaking is exercised *)
        (6, map (fun t -> Push (float_of_int t)) (int_bound 9));
        (3, return Pop);
        (* dense enough cancels to trip the compaction threshold *)
        (4, map (fun i -> Cancel i) (int_bound 10_000));
      ])

let print_op = function
  | Push t -> Printf.sprintf "Push %g" t
  | Pop -> "Pop"
  | Cancel i -> Printf.sprintf "Cancel %d" i

let ops_arb =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map print_op ops))
    QCheck.Gen.(list_size (int_range 0 600) op_gen)

type model_state = Live | Gone

let prop_heap_model =
  QCheck.Test.make ~name:"heap matches model under push/pop/cancel"
    ~count:200 ops_arb (fun ops ->
      let h = Heap.create 0 in
      (* (key, heap entry, state), oldest first; payload = seq. *)
      let entries = ref [] in
      let seq = ref 0 in
      let live () =
        List.length (List.filter (fun (_, _, st) -> !st = Live) !entries)
      in
      let ops_ok =
        List.for_all
          (fun op ->
            match op with
            | Push t ->
                let e = Heap.push h ~time:t !seq in
                entries := !entries @ [ ((t, !seq), e, ref Live) ];
                incr seq;
                Heap.size h = live ()
            | Cancel i -> (
                match !entries with
                | [] -> Heap.size h = 0
                | l ->
                    let _, e, st = List.nth l (i mod List.length l) in
                    Heap.cancel h e;
                    (* Cancel of a popped entry must be a no-op. *)
                    if !st = Live && Heap.cancelled e then st := Gone;
                    Heap.size h = live ())
            | Pop -> (
                let expected =
                  List.filter (fun (_, _, st) -> !st = Live) !entries
                  |> List.sort (fun (k1, _, _) (k2, _, _) -> compare k1 k2)
                in
                match (Heap.pop h, expected) with
                | None, [] -> Heap.size h = 0
                | Some (t, v), ((et, es), _, st) :: _ ->
                    st := Gone;
                    Float.equal t et && v = es && Heap.size h = live ()
                | Some _, [] | None, _ :: _ -> false))
          ops
      in
      (* The snapshot contract checkpoint/restore depends on, checked
         in whatever cancelled/compacted state the op sequence left:
         [entries] lists exactly the live entries in pop order, and
         re-pushing the snapshot into a fresh heap (in array order,
         fresh seqs) reproduces this heap's exact remaining pop
         order. *)
      let expected_live =
        List.filter (fun (_, _, st) -> !st = Live) !entries
        |> List.sort (fun (k1, _, _) (k2, _, _) -> compare k1 k2)
        |> List.map (fun ((t, s), _, _) -> (t, s))
      in
      let snap = Heap.entries h in
      let snapshot_ok = Array.to_list snap = expected_live in
      let h' = Heap.create 0 in
      Array.iter (fun (t, v) -> ignore (Heap.push h' ~time:t v)) snap;
      let pops heap =
        let rec go acc =
          match Heap.pop heap with
          | None -> List.rev acc
          | Some p -> go (p :: acc)
        in
        go []
      in
      let replay_ok = pops h' = pops h in
      ops_ok && snapshot_ok && replay_ok)

let test_heap_compaction_shrinks () =
  (* Push many, cancel all but one: the backing array must not keep a
     slot per cancelled entry once past the threshold, and the
     survivor must still pop correctly. *)
  let h = Heap.create "" in
  let keeper = Heap.push h ~time:5000. "keeper" in
  ignore keeper;
  for i = 1 to 10_000 do
    Heap.cancel h (Heap.push h ~time:(float_of_int i) "victim")
  done;
  Alcotest.(check int) "one live entry" 1 (Heap.size h);
  Alcotest.(check (option (pair (float 1e-9) string)))
    "survivor pops" (Some (5000., "keeper")) (Heap.pop h);
  Alcotest.(check (option (pair (float 1e-9) string)))
    "then empty" None (Heap.pop h)

let test_heap_capacity_shrinks () =
  (* Grow-to-peak then drain: the backing arrays must give the peak
     storage back (halving at quarter occupancy) instead of holding it
     for the heap's lifetime, and must stop at the fixed floor. *)
  let h = Heap.create 0 in
  for i = 1 to 100_000 do
    ignore (Heap.push h ~time:(float_of_int i) i)
  done;
  let peak_cap = Heap.capacity h in
  Alcotest.(check bool)
    "peak capacity covers the population" true (peak_cap >= 100_000);
  for _ = 1 to 99_900 do
    ignore (Heap.pop h)
  done;
  Alcotest.(check int) "100 live entries left" 100 (Heap.size h);
  Alcotest.(check int) "drained capacity back at the floor" 1024
    (Heap.capacity h);
  (* The survivors still pop in order after all that resizing. *)
  let rec drain prev =
    match Heap.pop h with
    | None -> ()
    | Some (t, _) ->
        Alcotest.(check bool) "pop order preserved" true (t >= prev);
        drain t
  in
  drain neg_infinity;
  Alcotest.(check int) "floor retained when empty" 1024 (Heap.capacity h)

let suites =
  [
    ( "sim.pool",
      [
        Alcotest.test_case "run preserves order" `Quick test_pool_order;
        Alcotest.test_case "jobs=1 runs inline" `Quick
          test_pool_single_job_inline;
        Alcotest.test_case "workers are domains" `Quick
          test_pool_workers_are_domains;
        Alcotest.test_case "first exception rethrown" `Quick
          test_pool_exception;
      ] );
    ("parallel.experiments", determinism_cases);
    ( "experiment.regression",
      List.map
        (fun ((id, n) as pin) ->
          Alcotest.test_case
            (Printf.sprintf "%s@%d digest pinned" id n)
            `Slow (test_digest_pinned pin))
        Manifest.pins
      @ [
          Alcotest.test_case
            (Printf.sprintf "%s digest pinned" Manifest.xenstore_key)
            `Quick test_xenstore_dump_pinned;
          Alcotest.test_case "manifest lists every result" `Quick
            test_manifest_keys;
        ] );
    ( "sim.heap.compaction",
      [
        QCheck_alcotest.to_alcotest prop_heap_model;
        Alcotest.test_case "cancel-heavy compaction" `Quick
          test_heap_compaction_shrinks;
        Alcotest.test_case "capacity shrinks after drain" `Quick
          test_heap_capacity_shrinks;
      ] );
  ]
