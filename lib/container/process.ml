module Rng = Lightvm_sim.Rng
module Frames = Lightvm_hv.Frames

type proc = {
  pid : int;
  p_rss_kb : int;
  mutable alive : bool;
}

type t = {
  machine : Machine.t;
  rng : Rng.t;
  procs : (int, proc) Hashtbl.t;
  mutable next_pid : int;
}

let create machine ~rng =
  { machine; rng; procs = Hashtbl.create 64; next_pid = 100 }

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
  let proc = { pid = t.next_pid; p_rss_kb = rss_kb; alive = true } in
  t.next_pid <- t.next_pid + 1;
  Hashtbl.replace t.procs proc.pid proc;
  proc

let kill t proc =
  if proc.alive then begin
    proc.alive <- false;
    ignore (Frames.free_all (Machine.mem t.machine) ~owner:proc.pid);
    Hashtbl.remove t.procs proc.pid
  end

let running t = Hashtbl.length t.procs

let rss_kb t =
  Hashtbl.fold (fun _ p acc -> acc + p.p_rss_kb) t.procs 0
