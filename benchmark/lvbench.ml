(* lvbench: the repository benchmark.

     lvbench measure --workload W --seed S --seconds N --trace 0|1
         one run in this process; the last line of output is the JSON
         result (trace 0: end-to-end metrics, trace 1: per-layer)
     lvbench trace --workload W [--seed S] [--seconds N]
         the traced run alone, with its per-layer table
     lvbench run [--workload W] [--seed S] [--reps 5] [--json PATH]
         each workload [reps] times untraced plus once traced, every run
         a fresh process; prints median [q1, q3] per metric and adds the
         runs to PATH
     lvbench compare PARENT.json CHANGE.json
         verdict per workload and metric from two [run --json] files

   See README.md in this directory for the workloads and metrics. *)

open Lvbench_core

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("lvbench: " ^ s); exit 2) fmt

type opts = {
  mutable workload : string option;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable scale : float;
  mutable reps : int;
  mutable json : string option;
  mutable out : string;
  mutable files : string list;
}

let parse args =
  let o =
    {
      workload = None;
      seed = 1;
      seconds = 10.;
      trace = false;
      scale = 1.;
      reps = 5;
      json = None;
      out = "_build/benchmark";
      files = [];
    }
  in
  let spec =
    [
      ("--workload", Arg.String (fun s -> o.workload <- Some s), "W workload name");
      ("--seed", Arg.Int (fun n -> o.seed <- n), "S input seed (default 1; 2 is held out)");
      ("--seconds", Arg.Float (fun f -> o.seconds <- f), "N time budget for the measured rounds");
      ("--trace", Arg.Int (fun n -> o.trace <- n <> 0), "0|1 traced run (per-layer metrics)");
      ("--scale", Arg.Float (fun f -> o.scale <- f), "F round size relative to the default");
      ("--reps", Arg.Int (fun n -> o.reps <- n), "N untraced runs per workload (run)");
      ("--json", Arg.String (fun s -> o.json <- Some s), "PATH add the runs to this summary file");
      ("--out", Arg.String (fun s -> o.out <- s), "DIR where traced runs write Chrome traces");
    ]
  in
  (try
     Arg.parse_argv ~current:(ref 0) args spec
       (fun f -> o.files <- o.files @ [ f ])
       "lvbench (measure|trace|run|compare) [options]"
   with
  | Arg.Bad msg -> die "%s" msg
  | Arg.Help msg ->
      print_string msg;
      exit 0);
  if o.seconds < 0. || o.scale <= 0. || o.reps < 1 then die "bad --seconds, --scale or --reps";
  o

let workload_of name =
  match Workload.find name with
  | Some w -> w
  | None ->
      die "unknown workload %S (expected %s)" name
        (String.concat ", " (List.map (fun w -> w.Workload.name) Workload.all))

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(* ------------------------------------------------------------------ *)
(* measure / trace *)

let measure o =
  let name = match o.workload with Some w -> w | None -> die "--workload is required" in
  let w = workload_of name in
  Lightvm_sim.Pool.tune_gc ();
  let res = Bench.run ~w ~seed:o.seed ~seconds:o.seconds ~trace:o.trace ~scale:o.scale in
  Printf.printf "# %s seed %d%s: digest %s\n" name o.seed
    (if o.trace then " (traced)" else "")
    res.Bench.digest;
  List.iter
    (fun (n, v, u) -> Printf.printf "%s %s %.6g %s\n" name n v u)
    res.Bench.detail;
  (match List.find_opt (fun (n, _, _) -> n = "vmm.vm_create.sim_ms_at_guest_1000") res.Bench.detail with
  | Some (_, v, _) when v > 0. ->
      Printf.printf
        "# model chaos [XS] create time at guest 1,000: %.1f ms (paper Fig 9: about 80 ms; not gated)\n"
        v
  | _ -> ());
  List.iter (fun e -> Printf.eprintf "lvbench: %s: check failed: %s\n" name e) res.Bench.errors;
  if o.trace then begin
    let path = Filename.concat o.out (Printf.sprintf "%s-seed%d.trace.json" name o.seed) in
    match
      mkdir_p o.out;
      Probe.write_chrome path
    with
    | () -> Printf.printf "# chrome trace: %s\n" path
    | exception e -> Printf.eprintf "lvbench: cannot write %s: %s\n" path (Printexc.to_string e)
  end;
  print_endline (Bench.detail_line ~workload:name ~seed:o.seed ~trace:o.trace res);
  print_endline (Bench.result_line res)

(* ------------------------------------------------------------------ *)
(* run: fresh processes of this executable *)

type child = { c_correct : bool; c_digest : string; c_metrics : (string * float * string) list }

let child o name ~trace =
  let args =
    [|
      Sys.executable_name; "measure"; "--workload"; name; "--seed"; string_of_int o.seed;
      "--seconds"; Printf.sprintf "%g" o.seconds; "--trace"; (if trace then "1" else "0");
      "--scale"; Printf.sprintf "%g" o.scale; "--out"; o.out;
    |]
  in
  let ic = Unix.open_process_args_in Sys.executable_name args in
  let detail = ref None in
  (try
     while true do
       let line = input_line ic in
       let p = String.length Bench.detail_prefix in
       if String.length line > p && String.sub line 0 p = Bench.detail_prefix then
         detail := Some (String.sub line p (String.length line - p))
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  match (status, !detail) with
  | Unix.WEXITED 0, Some d ->
      let j = Json.of_string d in
      {
        (* The child has already printed its failed checks. *)
        c_correct = Json.member "errors" j = Json.Arr [];
        c_digest = Json.to_str (Json.member "digest" j);
        c_metrics =
          List.map
            (fun (n, v) -> (n, Json.to_num (Json.member "value" v), Json.to_str (Json.member "unit" v)))
            (Json.to_assoc (Json.member "metrics" j));
      }
  | _ -> die "%s: measuring process failed" name

(* [run --json PATH] adds its runs to PATH when it exists, so runs
   taken at different times (alternating with another commit) collect
   into one file for [compare]. *)
let prior_values prior name metric =
  Json.(
    List.map to_num
      (to_list
         (member "values"
            (member metric (member "end_to_end" (member name (member "workloads" prior)))))))

let run o =
  let names = match o.workload with Some w -> [ (workload_of w).Workload.name ] | None -> List.map (fun w -> w.Workload.name) Workload.all in
  let prior =
    match o.json with
    | Some path when Sys.file_exists path -> (
        try Json.of_file path with Json.Parse_error msg -> die "%s: %s" path msg)
    | _ -> Json.Null
  in
  let ok = ref true in
  let summaries =
    List.map
      (fun name ->
        let runs = List.init o.reps (fun _ -> child o name ~trace:false) in
        let traced = child o name ~trace:true in
        let digests = List.sort_uniq compare (List.map (fun c -> c.c_digest) (traced :: runs)) in
        let correct = List.for_all (fun c -> c.c_correct) (traced :: runs) && List.length digests = 1 in
        if List.length digests > 1 then
          Printf.eprintf "lvbench: %s: simulated-output digests differ between runs\n" name;
        if not correct then ok := false;
        let e2e =
          List.map
            (fun (m : Spec.metric) ->
              let values =
                List.map
                  (fun c ->
                    match List.find_opt (fun (n, _, _) -> n = m.Spec.name) c.c_metrics with
                    | Some (_, v, _) -> v
                    | None -> nan)
                  runs
              in
              let q1, med, q3 = Stats.quartiles values in
              Printf.printf "%s %s %.6g [%.6g, %.6g] %s (%d)\n%!" name m.Spec.name med q1 q3
                m.Spec.unit_ (List.length values);
              let all = prior_values prior name m.Spec.name @ values in
              let q1, med, q3 = Stats.quartiles all in
              ( m.Spec.name,
                Json.Obj
                  [
                    ("unit", Json.Str m.Spec.unit_);
                    ("median", Json.Num med);
                    ("q1", Json.Num q1);
                    ("q3", Json.Num q3);
                    ("values", Json.Arr (List.map (fun v -> Json.Num v) all));
                  ] ))
            Spec.end_to_end
        in
        List.iter
          (fun (n, v, u) -> Printf.printf "%s %s %.6g %s (traced)\n" name n v u)
          traced.c_metrics;
        Printf.printf "%s digest %s%s\n%!" name (String.concat "," digests)
          (if correct then "" else " (CHECKS FAILED)");
        ( name,
          Json.Obj
            [
              ("correct", Json.Bool correct);
              ("digest", Json.Str (String.concat "," digests));
              ("end_to_end", Json.Obj e2e);
              ( "per_layer",
                Json.Obj
                  (List.map
                     (fun (n, v, u) -> (n, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str u) ]))
                     traced.c_metrics) );
            ] ))
      names
  in
  (match o.json with
  | None -> ()
  | Some path ->
      let kept =
        List.filter
          (fun (w, _) -> not (List.mem_assoc w summaries))
          (Json.to_assoc (Json.member "workloads" prior))
      in
      let oc = open_out path in
      output_string oc
        (Json.to_string
           (Json.Obj
              [
                ("seed", Json.Num (float_of_int o.seed));
                ("seconds", Json.Num o.seconds);
                ("scale", Json.Num o.scale);
                ("workloads", Json.Obj (kept @ summaries));
              ]));
      output_char oc '\n';
      close_out oc);
  if not !ok then exit 1

(* ------------------------------------------------------------------ *)

let compare_files parent change =
  let load path =
    try Json.of_file path with
    | Sys_error msg -> die "%s" msg
    | Json.Parse_error msg -> die "%s: %s" path msg
  in
  let p = load parent and c = load change in
  let regressions = ref 0 in
  List.iter
    (fun (w, pw) ->
      let cw = Json.member w (Json.member "workloads" c) in
      List.iter
        (fun (m : Spec.metric) ->
          let values j =
            List.map Json.to_num
              (Json.to_list (Json.member "values" (Json.member m.Spec.name (Json.member "end_to_end" j))))
          in
          let v = Stats.verdict m ~parent:(values pw) ~change:(values cw) in
          if v.Stats.kind = Stats.Regression then incr regressions;
          Printf.printf "%s %s %s\n" w m.Spec.name (Stats.describe m v))
        Spec.end_to_end)
    (Json.to_assoc (Json.member "workloads" p));
  if !regressions > 0 then exit 1

let () =
  let argv = Sys.argv in
  if Array.length argv < 2 then die "usage: lvbench (measure|trace|run|compare) [options]";
  let rest = Array.append [| argv.(0) |] (Array.sub argv 2 (Array.length argv - 2)) in
  match argv.(1) with
  | "measure" -> measure (parse rest)
  | "trace" ->
      let o = parse rest in
      o.trace <- true;
      measure o
  | "run" -> run (parse rest)
  | "compare" -> (
      match (parse rest).files with
      | [ parent; change ] -> compare_files parent change
      | _ -> die "usage: lvbench compare PARENT.json CHANGE.json")
  | cmd -> die "unknown command %S (expected measure, trace, run or compare)" cmd
