(* Command-line front end.

     lightvm_cli figure fig9 -n 500      reproduce one figure
     lightvm_cli list                    experiments available
     lightvm_cli figure headline         abstract's numbers
     lightvm_cli tinyx --app nginx       run the Tinyx build system
     lightvm_cli minipy -e 'print(1+2)'  run the mini-Python interpreter
     lightvm_cli boot --image daytime --mode lightvm
     lightvm_cli figure cluster -n 500 --faults 'migrate.corrupt:0.6'
     lightvm_cli figure fig5 -n 10 --trace fig5.json
*)

module E = Lightvm.Experiment
module Vmm = Lightvm_cluster.Vmm
module Series = Lightvm_metrics.Series
module Table = Lightvm_metrics.Table
module Image = Lightvm_guest.Image
module Mode = Lightvm_toolstack.Mode
module Create = Lightvm_toolstack.Create
module Trace = Lightvm_trace.Trace
module Trace_export = Lightvm_trace.Trace_export
module Pool = Lightvm_sim.Pool
module Fault = Lightvm_sim.Fault

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Shared printing *)

let print_labelled (l : E.labelled) =
  Printf.printf "# %s\n" l.E.label;
  List.iter
    (fun (x, y) -> Printf.printf "%g\t%.3f\n" x y)
    (Series.points l.E.series);
  print_newline ()

let print_table t = Format.printf "%a@." Table.pp t

(* The single generic renderer: every experiment comes back as an
   [E.result], whatever mix of series/tables/notes it produced. *)
let print_result (r : E.result) =
  List.iter print_labelled r.E.series;
  List.iter print_table r.E.tables;
  List.iter print_endline r.E.notes

(* ------------------------------------------------------------------ *)
(* figure: the one command that runs a registry experiment *)

let parse_partition_or_exit s =
  match E.partition_of_string s with
  | Ok p -> p
  | Error msg ->
      Printf.eprintf "bad --partition: %s\n" msg;
      exit 1

let parse_spec_or_exit s =
  match Fault.parse_spec s with
  | Ok spec -> spec
  | Error msg ->
      Printf.eprintf "bad --faults spec: %s\nfault points:\n%s\n" msg
        (String.concat "\n"
           (List.map
              (fun (name, doc) -> Printf.sprintf "  %-16s %s" name doc)
              Fault.points));
      exit 1

(* Span ring-buffer capacity of a traced run; older spans are evicted
   beyond it. *)
let trace_buffer = 2_000_000

(* Run [plan] with tracing on, print its result and the plain-text
   attribution summaries, and write the Chrome JSON to [path]. *)
let run_traced plan path =
  Trace.enable ~capacity:trace_buffer ();
  let r = E.run_plan plan in
  Trace.disable ();
  print_result r;
  print_table (Trace_export.summary_table ());
  print_table (Trace_export.charged_table ());
  print_table (Trace_export.counters_table ());
  match Trace_export.write_chrome_json path with
  | () ->
      Printf.printf
        "trace: %d spans recorded (%d evicted), Chrome JSON in %s\n"
        (Trace.span_count ()) (Trace.evicted ()) path
  | exception Sys_error msg ->
      Printf.eprintf "cannot write trace: %s\n" msg;
      exit 1

let run_figure id n jobs partition trace_file spec_str fault_seed =
  let partition = parse_partition_or_exit partition in
  let spec = Option.map parse_spec_or_exit spec_str in
  (* Tracing instruments the calling domain only, so a traced run is
     always sequential. Otherwise the same worker budget drives both
     layers of parallelism: the per-curve Pool and, inside the
     partitioned families, the per-partition windows. Output is
     identical either way. *)
  let jobs =
    match (trace_file, jobs) with
    | Some _, _ -> 1
    | None, Some j -> max 1 j
    | None, None -> Pool.default_jobs ()
  in
  match E.plan { E.n; partition; sim_jobs = jobs; spec; fault_seed } id with
  | Error msg ->
      Printf.eprintf "%s\n" msg;
      exit 1
  | Ok plan -> (
      match trace_file with
      | None -> print_result (E.run_plan ~jobs plan)
      | Some path -> run_traced plan path)

let n_arg =
  Arg.(value & opt (some int) None
       & info [ "n" ] ~docv:"N"
           ~doc:"Scale (guests/clients/requests, figure-dependent).")

let jobs_arg =
  Arg.(value & opt (some int) None
       & info [ "jobs"; "j" ] ~docv:"JOBS"
           ~doc:"Worker domains for per-curve parallelism (default: \
                 the machine's recommended domain count, capped). The \
                 output is identical for any value; 1 disables the \
                 pool.")

let partition_arg =
  Arg.(value & opt string (E.partition_name E.default_args.E.partition)
       & info [ "partition" ] ~docv:"MODE"
           ~doc:"Partitioning of the multi-host simulations (scale's \
                 partitioned row, the cluster policy jobs and the \
                 serverless fleets): $(b,host) runs each simulated host \
                 in its own partition of the conservative-sync parallel \
                 engine (on up to --jobs cores); $(b,none) runs the \
                 identical workload on the single-heap engine. Output \
                 is bit-identical either way.")

let trace_file_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Run with the tracer on (sequentially, whatever \
                 --jobs says), print time-attribution tables after the \
                 result and write a Chrome trace_event JSON trace to \
                 $(docv) (load in chrome://tracing or Perfetto).")

let faults_arg =
  Arg.(value & opt (some string) None
       & info [ "faults" ] ~docv:"SPEC"
           ~doc:"Comma-separated fault spec: $(i,point)$(b,:)$(i,P) \
                 injects with probability P, $(i,point)$(b,:@)$(i,K) \
                 every Kth check, a bare $(i,point) always; \
                 $(i,prefix)$(b,*) configures every matching point, \
                 e.g. $(b,xs.eagain:0.1,create.phase*:0.01). Default: \
                 the family's built-in spec, if it has one; the empty \
                 string disables every point.")

let seed_arg =
  Arg.(value & opt int64 E.default_args.E.fault_seed
       & info [ "fault-seed" ] ~docv:"SEED"
           ~doc:"Seed of the per-point fault streams and of the \
                 experiments' random streams. One (spec, seed) pair \
                 reproduces the exact same output on every run and for \
                 any --jobs value.")

let figure_cmd =
  let id =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"FIGURE"
             ~doc:"Experiment id, e.g. fig9 (see $(b,list)).")
  in
  let doc =
    "Run one registry experiment: a paper figure or table, or a family \
     beyond the paper. --faults reaches the experiments that inject \
     faults (reliability, the cluster drains and serverless's faults \
     cell) and --fault-seed also seeds the serverless and \
     serverless-day streams; every other experiment ignores them. -n \
     below 1 is refused."
  in
  Cmd.v (Cmd.info "figure" ~doc)
    Term.(
      const run_figure $ id $ n_arg $ jobs_arg $ partition_arg
      $ trace_file_arg $ faults_arg $ seed_arg)

(* ------------------------------------------------------------------ *)
(* serverless: open-loop traffic onto an autoscaled pool *)

let arrival_arg =
  Arg.(value & opt string "poisson"
       & info [ "arrival" ] ~docv:"PROCESS"
           ~doc:"Arrival process: $(b,poisson) (homogeneous), \
                 $(b,diurnal) (sinusoidal rate, +/-60% of --rate over \
                 the run) or $(b,mmpp) (two-state Markov-modulated: \
                 calm at half --rate, bursts at 4x).")

let rate_arg =
  Arg.(value & opt float 2000.
       & info [ "rate" ] ~docv:"REQ_PER_S"
           ~doc:"Mean arrival rate in requests/second.")

let policy_arg =
  Arg.(value & opt string "warmpool"
       & info [ "policy" ] ~docv:"POLICY"
           ~doc:"Instance policy: $(b,warmpool) (split-toolstack \
                 shell pool with the autoscaler), $(b,coldboot) (full \
                 creation pipeline per request) or $(b,container) \
                 (docker run per request).")

let duration_arg =
  Arg.(value & opt (some float) None
       & info [ "duration" ] ~docv:"SECONDS"
           ~doc:"Simulated seconds of arrivals (wins over -n; the \
                 backlog still drains after arrivals stop). Default: \
                 a 2000-request budget, i.e. 2000/rate seconds.")

let run_serverless arrival rate policy duration n spec_str fault_seed =
  let spec = Option.map parse_spec_or_exit spec_str in
  match
    E.serverless_run ?duration ~arrival ~rate ~policy
      { E.default_args with n; spec; fault_seed }
  with
  | Ok r -> print_result r
  | Error msg ->
      Printf.eprintf "serverless: %s\n" msg;
      exit 1

let serverless_cmd =
  let doc =
    "Open-loop serverless traffic: an arrival process dispatches \
     function invocations onto VM (or container) instances and \
     reports p50/p99/p999 sojourn times, the queue-depth trace and \
     the warm-pool hit rate. The full calibrated family (coldboot vs \
     warmpool vs container, diurnal/mmpp shapes, the multi-host \
     fleet) runs via $(b,figure serverless); this command runs one \
     configurable cell. Same seed and flags produce bit-identical \
     output for any --jobs or --partition setting. --faults injects \
     creation faults, surfacing as failed requests."
  in
  Cmd.v (Cmd.info "serverless" ~doc)
    Term.(
      const run_serverless $ arrival_arg $ rate_arg $ policy_arg
      $ duration_arg $ n_arg $ faults_arg $ seed_arg)

(* ------------------------------------------------------------------ *)
(* snapshot / resume: boot-once prefixes on disk *)

let run_snapshot key n partition sim_jobs out =
  let partition = parse_partition_or_exit partition in
  let sim_jobs =
    match sim_jobs with Some j -> max 1 j | None -> Pool.default_jobs ()
  in
  let args = { E.default_args with n; partition; sim_jobs } in
  match key with
  | None ->
      (* No key: list what this scale would snapshot. *)
      List.iter
        (fun p ->
          Printf.printf "%-28s %s\n" p.E.prefix_key p.E.prefix_describe)
        (E.prefixes args)
  | Some key -> (
      match E.snapshot_to_file args ~key ~path:out with
      | Ok description ->
          Printf.printf "snapshot %s: %s\n  -> %s\n" key description out
      | Error msg ->
          Printf.eprintf "snapshot failed: %s\n" msg;
          Printf.eprintf "known prefixes at this scale:\n";
          List.iter
            (fun p -> Printf.eprintf "  %s\n" p.E.prefix_key)
            (E.prefixes args);
          exit 1)

let snapshot_cmd =
  let key =
    Arg.(value & pos 0 (some string) None
         & info [] ~docv:"PREFIX"
             ~doc:"Prefix key, e.g. $(b,scale:chaos-xs@2000) or \
                   $(b,cluster:drain@500). Omit to list the keys \
                   available at this scale.")
  in
  let out =
    Arg.(value & opt string "lightvm.lvmsnap"
         & info [ "o"; "output" ] ~docv:"FILE"
             ~doc:"Where to write the snapshot.")
  in
  let doc =
    "Simulate a shared experiment boot prefix once and write the \
     quiesced state to disk. The file carries a versioned header \
     (magic, format version, producing binary digest, config) and can \
     be resumed any number of times by $(b,resume) — fork-many from \
     one boot."
  in
  Cmd.v (Cmd.info "snapshot" ~doc)
    Term.(
      const run_snapshot $ key $ n_arg $ partition_arg $ jobs_arg $ out)

let run_resume path n spec_str fault_seed =
  let spec = Option.map parse_spec_or_exit spec_str in
  match
    E.resume_from_file { E.default_args with n; spec; fault_seed } ~path
  with
  | Ok r -> print_result r
  | Error msg ->
      Printf.eprintf "resume failed: %s\n" msg;
      exit 1

let resume_cmd =
  let path =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"FILE" ~doc:"Snapshot written by $(b,snapshot).")
  in
  let doc =
    "Resume a snapshot and run the suffix of the family its stored key \
     names (the text before ':'), with every other parameter read off \
     the image itself. -n, --faults and --fault-seed reach the suffix as \
     they reach the family's $(b,figure) run (a $(b,scale) image is \
     extended by -n more creations, a tenth of its guests by default); \
     -n below 1 is refused. A resumed run renders bit-identically to the \
     unbroken simulation; header mismatches (foreign file, other format \
     version, other binary) are refused with the structured reason."
  in
  Cmd.v (Cmd.info "resume" ~doc)
    Term.(const run_resume $ path $ n_arg $ faults_arg $ seed_arg)

let list_cmd =
  let doc = "List the reproducible experiments." in
  Cmd.v (Cmd.info "list" ~doc)
    Term.(const (fun () -> List.iter print_endline E.names) $ const ())

(* ------------------------------------------------------------------ *)
(* tinyx *)

let run_tinyx app no_prune =
  match
    Lightvm_tinyx.Build.build
      (Lightvm_tinyx.Build.spec ~app ~prune_kernel:(not no_prune) ())
  with
  | Error msg ->
      Printf.eprintf "build failed: %s\n" msg;
      exit 1
  | Ok r ->
      Printf.printf "packages: %s\n"
        (String.concat ", " r.Lightvm_tinyx.Build.packages);
      Printf.printf "blacklisted: %s\n"
        (String.concat ", " r.Lightvm_tinyx.Build.blacklisted);
      Printf.printf "distribution: %d KB\n"
        r.Lightvm_tinyx.Build.distribution_kb;
      Printf.printf "kernel: %d KB (debian: %d KB), runtime %d KB\n"
        r.Lightvm_tinyx.Build.kernel_kb
        r.Lightvm_tinyx.Build.debian_kernel_kb
        r.Lightvm_tinyx.Build.kernel_runtime_kb;
      Printf.printf "image: %.1f MB disk, %.1f MB memory\n"
        r.Lightvm_tinyx.Build.image.Image.disk_mb
        r.Lightvm_tinyx.Build.image.Image.mem_mb

let tinyx_cmd =
  let app_arg =
    Arg.(value & opt string "nginx"
         & info [ "app" ] ~docv:"APP" ~doc:"Application package.")
  in
  let no_prune =
    Arg.(value & flag
         & info [ "no-prune" ] ~doc:"Skip the kernel-pruning loop.")
  in
  let doc = "Build a Tinyx image (Section 3.2)." in
  Cmd.v (Cmd.info "tinyx" ~doc)
    Term.(const run_tinyx $ app_arg $ no_prune)

(* ------------------------------------------------------------------ *)
(* minipy *)

let run_minipy expr file =
  let source =
    match (expr, file) with
    | Some e, _ -> e
    | None, Some path ->
        let ic = open_in path in
        let n = in_channel_length ic in
        let s = really_input_string ic n in
        close_in ic;
        s
    | None, None ->
        Printf.eprintf "need -e PROGRAM or a file argument\n";
        exit 1
  in
  match Lightvm_minipy.Interp.run source with
  | Ok outcome ->
      List.iter print_endline outcome.Lightvm_minipy.Interp.stdout;
      Printf.eprintf "(%d steps)\n" outcome.Lightvm_minipy.Interp.steps
  | Error msg ->
      Printf.eprintf "%s\n" msg;
      exit 1

let minipy_cmd =
  let expr =
    Arg.(value & opt (some string) None
         & info [ "e" ] ~docv:"PROGRAM" ~doc:"Program text.")
  in
  let file =
    Arg.(value & pos 0 (some file) None
         & info [] ~docv:"FILE" ~doc:"Program file.")
  in
  let doc = "Run a program through the Minipython interpreter." in
  Cmd.v (Cmd.info "minipy" ~doc) Term.(const run_minipy $ expr $ file)

(* ------------------------------------------------------------------ *)
(* boot *)

let run_boot image_name mode_name count =
  let image =
    match Image.find image_name with
    | Some i -> i
    | None ->
        Printf.eprintf "unknown image %S; known: %s\n" image_name
          (String.concat ", "
             (List.map (fun i -> i.Image.name) Image.all));
        exit 1
  in
  let mode =
    match Mode.of_slug mode_name with
    | Some m -> m
    | None ->
        Printf.eprintf "unknown mode %S (%s)\n" mode_name
          (String.concat ", " (List.map Mode.slug Mode.all_modes));
        exit 1
  in
  ignore
    (Lightvm_sim.Engine.run (fun () ->
         let host = Vmm.create ~mode () in
         if mode.Mode.split then
           Vmm.prefill_pool host image ~nics:1 ~disks:0;
         for i = 1 to count do
           let vi =
             match Vmm.vm_create host (Vmm.vm_request image) with
             | Ok vi -> vi
             | Error e ->
                 Printf.eprintf "create failed: %s\n" (Vmm.error_to_string e);
                 exit 1
           in
           (match Vmm.vm_boot host ~domid:vi.Vmm.vi_domid with
           | Ok () -> ()
           | Error e ->
               Printf.eprintf "boot failed: %s\n" (Vmm.error_to_string e);
               exit 1);
           match Vmm.vm_counters host ~domid:vi.Vmm.vi_domid with
           | Error _ -> assert false
           | Ok c ->
               Printf.printf
                 "vm %3d %-14s domid %4d  create %8.2f ms  boot %8.2f ms\n" i
                 vi.Vmm.vi_name vi.Vmm.vi_domid
                 (c.Vmm.vc_create_s *. 1e3)
                 (c.Vmm.vc_boot_s *. 1e3)
         done;
         Lightvm_sim.Engine.stop ()))

let boot_cmd =
  let image =
    Arg.(value & opt string "daytime"
         & info [ "image" ] ~docv:"IMAGE" ~doc:"Guest image name.")
  in
  let mode =
    Arg.(value & opt string "lightvm"
         & info [ "mode" ] ~docv:"MODE" ~doc:"Toolstack mode.")
  in
  let count =
    Arg.(value & opt int 3
         & info [ "count" ] ~docv:"N" ~doc:"How many VMs to boot.")
  in
  let doc = "Boot VMs on a simulated host and print timings." in
  Cmd.v (Cmd.info "boot" ~doc)
    Term.(const run_boot $ image $ mode $ count)

(* ------------------------------------------------------------------ *)
(* xenstore: boot guests on the classic path and dump the store *)

let run_xenstore count = print_string (E.xenstore_dump ~count)

let xenstore_cmd =
  let count =
    Arg.(value & opt int 2
         & info [ "count" ] ~docv:"N" ~doc:"Guests to create first.")
  in
  let doc = "Dump the XenStore contents after creating guests." in
  Cmd.v (Cmd.info "xenstore" ~doc) Term.(const run_xenstore $ count)

(* ------------------------------------------------------------------ *)

let () =
  Lightvm_sim.Pool.tune_gc ();
  let doc = "LightVM (SOSP'17) reproduction toolkit" in
  let info = Cmd.info "lightvm_cli" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ figure_cmd; serverless_cmd; snapshot_cmd; resume_cmd; list_cmd;
            tinyx_cmd; minipy_cmd; boot_cmd; xenstore_cmd ]))
