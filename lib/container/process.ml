module Rng = Lightvm_sim.Rng
module Frames = Lightvm_hv.Frames

type t = {
  machine : Machine.t;
  rng : Rng.t;
  mutable next_pid : int;
  mutable rss_kb : int;
}

let create machine ~rng = { machine; rng; next_pid = 100; rss_kb = 0 }

(* fork/exec: ~1.2 ms floor (page-table copy, exec, dynamic linking)
   plus an exponential tail (page faults, scheduling) giving a 3.5 ms
   mean and ~9 ms at the 95th+ percentile. *)
let fork_exec_cost rng =
  0.0012 +. Rng.exponential rng ~mean:0.0023

let fork_exec t ?(rss_kb = 1_400) () =
  Machine.consume_any t.machine (fork_exec_cost t.rng);
  (match Frames.alloc (Machine.mem t.machine) ~owner:t.next_pid ~kb:rss_kb
   with
  | Ok () -> ()
  | Error Frames.ENOMEM -> failwith "Process.fork_exec: out of memory");
  t.next_pid <- t.next_pid + 1;
  t.rss_kb <- t.rss_kb + rss_kb

let rss_kb t = t.rss_kb
