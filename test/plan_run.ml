(* Registry helpers shared by test files: an experiment's plan by name,
   failing the test on an [Error], and its merged result. *)

module E = Lightvm.Experiment

let plan ?n ?partition ?sim_jobs ?spec ?fault_seed id =
  match E.plan ?n ?partition ?sim_jobs ?spec ?fault_seed id with
  | Ok p -> p
  | Error msg -> Alcotest.fail msg

let run ?jobs ?n ?partition ?sim_jobs ?spec ?fault_seed id =
  E.run_plan ?jobs (plan ?n ?partition ?sim_jobs ?spec ?fault_seed id)

(* The result's single table. *)
let table ?n id =
  match (run ?n id).E.tables with
  | [ t ] -> t
  | ts -> Alcotest.failf "%s: %d tables, expected one" id (List.length ts)
