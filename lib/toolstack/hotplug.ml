module Fault = Lightvm_sim.Fault
module Xen = Lightvm_hv.Xen
module Device = Lightvm_guest.Device
module Trace = Lightvm_trace.Trace

exception Timeout of string

let estimate kind ~costs (dev : Device.config) =
  match kind with
  | Mode.Xendevd -> costs.Costs.xendevd_per_device
  | Mode.Script ->
      match dev.Device.kind with
      | Device.Vif -> costs.Costs.hotplug_script_vif +. costs.Costs.udev_settle
      | Device.Vbd -> costs.Costs.hotplug_script_vbd +. costs.Costs.udev_settle
      | Device.Sysctl -> 0. (* no user-space setup: pure shared memory *)

let hang_point = Fault.point "hotplug.hang"

(* One setup attempt. A hang (fault point "hotplug.hang") models a
   wedged script or a lost udev event: the device never comes up and
   the toolstack's watchdog fires after [hotplug_timeout] — the caller
   waits out the timeout but the script burns no Dom0 CPU. *)
let attempt kind ~xen ~costs dev =
  if Fault.fire hang_point then begin
    Trace.charge ~category:"devices.hotplug_timeout"
      costs.Costs.hotplug_timeout;
    false
  end
  else begin
    Xen.consume_dom0 xen (estimate kind ~costs dev);
    true
  end

let run kind ~xen ~costs dev =
  match kind with
  | Mode.Script ->
      (* xl forks the script once; a hang is fatal to the creation. *)
      if not (attempt kind ~xen ~costs dev) then
        raise
          (Timeout
             (Printf.sprintf "hotplug script timed out (%s%d)"
                (Device.kind_to_string dev.Device.kind)
                dev.Device.devid))
  | Mode.Xendevd ->
      (* Graceful degradation: xendevd treats a failed setup as a lost
         udev event and requeues it (bounded), so a transient hang
         costs one timeout + requeue delay instead of failing the
         creation. *)
      let rec go n =
        if attempt kind ~xen ~costs dev then ()
        else if n < costs.Costs.xendevd_requeue_limit then begin
          Trace.charge ~category:"devices.requeue"
            costs.Costs.xendevd_requeue_delay;
          go (n + 1)
        end
        else
          raise
            (Timeout
               (Printf.sprintf
                  "xendevd: device setup failed after %d requeues (%s%d)" n
                  (Device.kind_to_string dev.Device.kind)
                  dev.Device.devid))
      in
      go 0
