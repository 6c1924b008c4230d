(* Simulated-time cost profiles for XenStore operations.

   The paper (Section 4.2) attributes XenStore slowness to: the
   request/ack message protocol (>= 2, usually 4 software interrupts per
   operation plus multiple privilege-domain crossings); linear scans
   (unique-name checks against all running guests); watch fan-out; failed
   transactions that are retried; and access-log rotation stalls.

   Each mechanism below has its own constant so the server can charge the
   *actual* amount of work its real data structures perform. Values are
   calibrated so that, with the operation counts our toolstacks issue,
   creation times land near the paper's: chaos+XS first VM ~15ms (Fig 9),
   xl+Debian first VM ~500ms growing to ~1.7s at 1000 guests (Figs 4/5),
   log-rotation spikes every couple hundred VMs. *)

type profile = {
  name : string;
  softirq : float; (* one software interrupt *)
  crossing : float; (* one privilege-domain crossing *)
  irqs_per_message : int; (* paper: "most often four" *)
  crossings_per_message : int;
  base_op : float; (* daemon-side dispatch of one request *)
  per_byte : float; (* payload marshalling *)
  per_dir_entry : float; (* DIRECTORY: per child listed *)
  per_name_cmp : float; (* uniqueness scan: per existing guest *)
  per_watch_check : float; (* per registered watch examined on a write *)
  watch_fire : float; (* queueing + delivering one watch event *)
  tx_start : float;
  tx_commit : float;
  tx_replay_per_op : float; (* validation cost per journaled op *)
  tx_backoff_base : float; (* client retry backoff: base * 2^attempt *)
  log_lines_per_op : int;
  log_line : float;
  log_rotate_per_file : float; (* rotation stall, per file in the ring *)
  logging_enabled : bool;
}

(* oxenstored: the OCaml implementation, "the faster of the two". *)
let oxenstored =
  {
    name = "oxenstored";
    softirq = 4.0e-6;
    crossing = 3.0e-6;
    irqs_per_message = 4;
    crossings_per_message = 4;
    base_op = 25.0e-6;
    per_byte = 8.0e-9;
    per_dir_entry = 0.6e-6;
    per_name_cmp = 45.0e-6; (* read + string compare per running guest *)
    per_watch_check = 2.0e-6;
    watch_fire = 30.0e-6;
    tx_start = 20.0e-6;
    tx_commit = 35.0e-6;
    tx_replay_per_op = 6.0e-6;
    tx_backoff_base = 50.0e-6;
    log_lines_per_op = 2;
    log_line = 1.5e-6;
    log_rotate_per_file = 9.0e-3; (* 20 files -> ~180ms spike *)
    logging_enabled = true;
  }

(* cxenstored: the C implementation; the paper notes "much higher
   overheads". Same mechanisms, slower constants (no immutable-tree
   fast paths, fsync-happy logging). *)
let cxenstored =
  {
    oxenstored with
    name = "cxenstored";
    base_op = 95.0e-6;
    per_dir_entry = 2.5e-6;
    per_name_cmp = 140.0e-6;
    per_watch_check = 5.5e-6;
    watch_fire = 85.0e-6;
    tx_start = 60.0e-6;
    tx_commit = 120.0e-6;
    tx_replay_per_op = 25.0e-6;
    tx_backoff_base = 150.0e-6;
    log_line = 5.0e-6;
  }

let message_cost p ~payload_bytes =
  (float_of_int p.irqs_per_message *. p.softirq)
  +. (float_of_int p.crossings_per_message *. p.crossing)
  +. p.base_op
  +. (float_of_int payload_bytes *. p.per_byte)
