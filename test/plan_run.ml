(* Registry helpers shared by test files: args from optional settings,
   an experiment's plan by name, failing the test on an [Error], and its
   merged result. *)

module E = Lightvm.Experiment

(* [E.default_args] with the given settings. *)
let args ?n ?partition ?sim_jobs ?spec ?fault_seed () =
  let d = E.default_args in
  {
    E.n = (if Option.is_some n then n else d.E.n);
    partition = Option.value partition ~default:d.E.partition;
    sim_jobs = Option.value sim_jobs ~default:d.E.sim_jobs;
    spec = (if Option.is_some spec then spec else d.E.spec);
    fault_seed = Option.value fault_seed ~default:d.E.fault_seed;
  }

let plan ?n ?partition ?sim_jobs ?spec ?fault_seed id =
  match E.plan (args ?n ?partition ?sim_jobs ?spec ?fault_seed ()) id with
  | Ok p -> p
  | Error msg -> Alcotest.fail msg

let run ?jobs ?n ?partition ?sim_jobs ?spec ?fault_seed id =
  E.run_plan ?jobs (plan ?n ?partition ?sim_jobs ?spec ?fault_seed id)

(* The result's single table. *)
let table ?n id =
  match (run ?n id).E.tables with
  | [ t ] -> t
  | ts -> Alcotest.failf "%s: %d tables, expected one" id (List.length ts)
