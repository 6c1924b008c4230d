(* Every workload at 1% size, untraced and traced, through the real
   executable: each run passes its output checks and prints every metric
   BENCHMARK.json names, with its unit. Also pins BENCHMARK.json to the
   metric table the executable is built with. *)

open Lvbench_core

let spec_file = "../BENCHMARK.json"

let run_lvbench workload ~trace =
  let args =
    [|
      "./lvbench.exe"; "measure"; "--workload"; workload; "--seed"; "1"; "--seconds"; "0";
      "--trace"; (if trace then "1" else "0"); "--scale"; "0.01"; "--out"; "smoke-traces";
    |]
  in
  let ic = Unix.open_process_args_in "./lvbench.exe" args in
  let last = ref "" in
  (try
     while true do
       last := input_line ic
     done
   with End_of_file -> ());
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> Alcotest.failf "%s: lvbench exited with an error" workload);
  Json.of_string !last

let metric_names key =
  List.map
    (fun m -> (Json.to_str (Json.member "name" m), Json.to_str (Json.member "unit" m)))
    (Json.to_list (Json.member key (Json.of_file spec_file)))

let prints_every_metric ~trace () =
  let key = if trace then "per_layer" else "end_to_end" in
  let wanted = metric_names key in
  Alcotest.(check bool) (key ^ " is not empty") true (wanted <> []);
  List.iter
    (fun (w : Workload.t) ->
      let res = run_lvbench w.Workload.name ~trace in
      Alcotest.(check bool) (w.Workload.name ^ " correct") true
        (Json.member "correct" res = Json.Bool true);
      Alcotest.(check bool) (w.Workload.name ^ " attempted") true
        (Json.to_num (Json.member "attempted" res) >= 1.);
      let printed = Json.to_assoc (Json.member "metrics" res) in
      Alcotest.(check (list string))
        (w.Workload.name ^ " metric names")
        (List.sort compare (List.map fst wanted))
        (List.sort compare (List.map fst printed));
      List.iter
        (fun (name, unit_) ->
          let m = List.assoc name printed in
          Alcotest.(check string) (name ^ " unit") unit_ (Json.to_str (Json.member "unit" m));
          Alcotest.(check bool) (name ^ " is a number") true
            (Float.is_finite (Json.to_num (Json.member "value" m))))
        wanted)
    Workload.all

let spec_matches_file () =
  let j = Json.of_file spec_file in
  let entries key =
    List.map
      (fun m ->
        ( Json.to_str (Json.member "name" m),
          Json.to_str (Json.member "unit" m),
          Json.to_str (Json.member "better" m),
          Json.to_num (Json.member "bound" m) ))
      (Json.to_list (Json.member key j))
  in
  let ours with_bound l =
    List.map
      (fun (m : Spec.metric) ->
        (m.Spec.name, m.Spec.unit_, Spec.better_name m.Spec.better, if with_bound then m.Spec.bound else nan))
      l
  in
  let show = List.map (fun (n, u, b, x) -> Printf.sprintf "%s %s %s %g" n u b x) in
  Alcotest.(check (list string)) "end_to_end" (show (ours true Spec.end_to_end)) (show (entries "end_to_end"));
  Alcotest.(check (list string)) "per_layer" (show (ours false Spec.per_layer)) (show (entries "per_layer"));
  Alcotest.(check (list string)) "workloads"
    (List.map (fun (w : Workload.t) -> w.Workload.name) Workload.all)
    (List.map (fun w -> Json.to_str (Json.member "name" w)) (Json.to_list (Json.member "workloads" j)))

let () =
  Alcotest.run "benchmark"
    [
      ( "smoke",
        [
          Alcotest.test_case "BENCHMARK.json matches the metric table" `Quick spec_matches_file;
          Alcotest.test_case "end-to-end metrics printed" `Quick (prints_every_metric ~trace:false);
          Alcotest.test_case "per-layer metrics printed" `Quick (prints_every_metric ~trace:true);
        ] );
    ]
