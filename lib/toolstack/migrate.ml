module Engine = Lightvm_sim.Engine
module Fault = Lightvm_sim.Fault
module Trace = Lightvm_trace.Trace

(* Retransfer attempts before giving up on a corrupted stream. *)
let max_transfer_attempts = 3

type stats = {
  total : float;
  precreate : float;
  suspend : float;
  transfer : float;
  resume : float;
}

let corrupt_point = Fault.point "migrate.corrupt"

let migrate ~src ~dst (created : Create.created) =
  let costs = Toolstack.costs src in
  let t0 = Engine.now () in
  (* 1. Open the TCP connection and ship the configuration (several
     round trips: SYN, config, acknowledgements). *)
  let config_text = Vmconfig.to_string created.Create.config in
  Trace.charge ~category:"migrate.handshake"
    ((float_of_int costs.Costs.migration_handshake_rtts
      *. costs.Costs.migration_rtt)
    +. (float_of_int (String.length config_text)
        /. (costs.Costs.migration_bw_mbps *. 1.0e6)));
  Trace.charge ~category:"migrate.daemon"
    costs.Costs.migration_daemon_overhead;
  (* 2. Suspend at the source (the destination's pre-creation happens
     while the source works, so only the longer of the two gates the
     migration; the daemon path is modelled sequentially here and its
     pre-creation cost is what the destination pipeline charges at
     resume). *)
  let t_suspend0 = Engine.now () in
  match Checkpoint.suspend_for_transfer src created with
  | Error reason -> Error reason
  | Ok saved ->
      let t_suspend = Engine.now () -. t_suspend0 in
      (* 3. Stream guest memory over the wire. A corrupted stream (fault
         point "migrate.corrupt") is caught by the receiver's checksum
         and retransmitted whole, at most [max_transfer_attempts] times;
         past that the migration fails — note the source was already
         destroyed at suspend, so the guest is lost, exactly the xl
         failure mode. *)
      let t_transfer0 = Engine.now () in
      let mem_mb = Checkpoint.saved_mem_mb saved in
      let rec stream attempt =
        Trace.charge ~category:"migrate.transfer"
          (mem_mb /. costs.Costs.migration_bw_mbps);
        if not (Fault.fire corrupt_point) then true
        else if attempt < max_transfer_attempts then begin
          (* Receiver NACK + sender restart: one extra round trip. *)
          Trace.charge ~category:"migrate.handshake" costs.Costs.migration_rtt;
          stream (attempt + 1)
        end
        else false
      in
      if not (stream 1) then
        Error
          (Printf.sprintf "stream corrupted %d times; giving up"
             max_transfer_attempts)
      else begin
        let t_transfer = Engine.now () -. t_transfer0 in
        (* 4. Resume on the destination (pre-creation + reconnect). *)
        let t_resume0 = Engine.now () in
        match Checkpoint.resume_from_transfer dst saved with
        | Error _ as e -> e
        | Ok resumed ->
            let t_resume = Engine.now () -. t_resume0 in
            Ok
              ( resumed,
                {
                  total = Engine.now () -. t0;
                  precreate = 0.;
                  suspend = t_suspend;
                  transfer = t_transfer;
                  resume = t_resume;
                } )
      end
