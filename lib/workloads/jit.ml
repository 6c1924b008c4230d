module Engine = Lightvm_sim.Engine
module Cdf = Lightvm_metrics.Cdf
module Xen = Lightvm_hv.Xen
module Image = Lightvm_guest.Image
module Mode = Lightvm_toolstack.Mode
module Vmm = Lightvm_cluster.Vmm
module Packet = Lightvm_net.Packet
module Switch = Lightvm_net.Switch

type config = {
  arrival_interval : float;
  clients : int;
  mode : Mode.t;
  arp_timeout : float;
  max_retries : int;
  bridge_pps : float;
  idle_teardown : float;
}

let default_config =
  {
    arrival_interval = 0.025;
    clients = 150;
    mode = Mode.lightvm;
    arp_timeout = 1.0;
    max_retries = 3;
    bridge_pps = 20_000.;
    idle_teardown = 2.0;
  }

type result = {
  rtts : float list;
  cdf : Cdf.t;
  timeouts : int;
  arp_drops : int;
  vms_booted : int;
  torn_down : int;
}

let dispatcher_port = 1

(* All clients reach the edge box through one physical uplink, so the
   bridge's broadcast fanout is dispatcher + uplink + live service VMs
   (not one port per mobile client). *)
let uplink_port = 2

let service_addr i = 20_000 + i

type vm_state =
  | Booting of Packet.t list ref  (** pings stashed until the VM is up *)
  | Ready of int  (** the VM's domid *)

let run config =
  let rtts = Array.make config.clients nan in
  let retried = Array.make config.clients false in
  let vms_booted = ref 0 in
  let torn_down = ref 0 in
  let arp_drops = ref 0 in
  ignore
    (Engine.run (fun () ->
         let host = Vmm.create ~mode:config.mode () in
         let xen = Vmm.xen host in
         let sw = Switch.create ~capacity_pps:config.bridge_pps () in
         let vms : (int, vm_state) Hashtbl.t = Hashtbl.create 64 in
         let last_activity : (int, float) Hashtbl.t = Hashtbl.create 64 in
         let vm_request i =
           Vmm.vm_request ~name:(Printf.sprintf "svc-%d" i)
             Image.clickos_firewall
         in
         (* Warm the shell pool (split modes only) for the flavor that
            every request asks for. *)
         let flavor = vm_request 0 in
         Vmm.prefill_pool host flavor.Vmm.req_image
           ~nics:flavor.Vmm.req_nics ~disks:flavor.Vmm.req_disks;

         (* The service VM's behaviour once up: answer pings on its own
            port. *)
         let attach_vm i domid =
           Switch.attach sw ~port:(service_addr i)
             ~handler:(fun pkt ->
               match pkt.Packet.kind with
               | Packet.Icmp_echo
                 when pkt.Packet.dst = Packet.Addr (service_addr i) ->
                   Hashtbl.replace last_activity i (Engine.now ());
                   (* Echo handling costs a little guest CPU. *)
                   Xen.consume_guest xen ~domid 50.0e-6;
                   Switch.send sw
                     (Packet.make ~src:(service_addr i)
                        ~dst:(Packet.Addr pkt.Packet.src)
                        ~kind:Packet.Icmp_reply ~seq:pkt.Packet.seq ())
               | _ -> ())
         in

         (* Dispatcher: proxy-ARP, and boot-on-first-packet with the
            triggering ping stashed and re-injected once the VM is up
            (the Jitsu trick the paper builds on). *)
         let boot_vm i pending =
           Engine.spawn ~name:(Printf.sprintf "jit-boot-%d" i)
             (fun () ->
               match Vmm.vm_create host (vm_request i) with
               | Error _ -> Hashtbl.remove vms i
               | Ok vi ->
                   let domid = vi.Vmm.vi_domid in
                   ignore (Vmm.vm_boot host ~domid);
                   incr vms_booted;
                   Hashtbl.replace vms i (Ready domid);
                   Hashtbl.replace last_activity i (Engine.now ());
                   attach_vm i domid;
                   (* Replay the packets that arrived while booting. *)
                   List.iter (Switch.send sw) (List.rev !pending);
                   pending := [])
         in
         Switch.attach sw ~port:dispatcher_port ~handler:(fun pkt ->
             match pkt.Packet.kind with
             | Packet.Arp_request ->
                 Switch.send sw
                   (Packet.make ~src:dispatcher_port
                      ~dst:(Packet.Addr pkt.Packet.src)
                      ~kind:Packet.Arp_reply ~seq:pkt.Packet.seq ())
             | Packet.Icmp_echo -> (
                 let i = pkt.Packet.seq in
                 match Hashtbl.find_opt vms i with
                 | Some (Ready _) -> () (* VM answers it itself *)
                 | Some (Booting pending) ->
                     pending := pkt :: !pending
                 | None ->
                     let pending = ref [ pkt ] in
                     Hashtbl.replace vms i (Booting pending);
                     boot_vm i pending)
             | _ -> ());

         (* Idle reaper: destroy VMs quiet for [idle_teardown]. *)
         let reaper_live = ref true in
         Engine.spawn ~name:"jit-reaper" (fun () ->
             while !reaper_live do
               Engine.sleep 0.5;
               let now = Engine.now () in
               Hashtbl.iter
                 (fun i last ->
                   if now -. last > config.idle_teardown then
                     match Hashtbl.find_opt vms i with
                     | Some (Ready domid) ->
                         Hashtbl.remove vms i;
                         Hashtbl.remove last_activity i;
                         Switch.detach sw ~port:(service_addr i);
                         ignore (Vmm.vm_delete host ~domid);
                         incr torn_down
                     | Some (Booting _) | None -> ())
                 (Hashtbl.copy last_activity)
             done);

         (* Clients, multiplexed behind the uplink port. *)
         let client_rx : (int, Packet.t -> unit) Hashtbl.t =
           Hashtbl.create 64
         in
         Switch.attach sw ~port:uplink_port ~handler:(fun pkt ->
             match Hashtbl.find_opt client_rx pkt.Packet.seq with
             | Some handler -> handler pkt
             | None -> ());
         let client i () =
           let start = Engine.now () in
           let done_ = Engine.Ivar.create () in
           Hashtbl.replace client_rx i (fun pkt ->
               match pkt.Packet.kind with
               | Packet.Arp_reply when pkt.Packet.seq = i ->
                   Switch.send sw
                     (Packet.make ~src:uplink_port
                        ~dst:(Packet.Addr (service_addr i))
                        ~kind:Packet.Icmp_echo ~seq:i ())
               | Packet.Icmp_reply when pkt.Packet.seq = i ->
                   if not (Engine.Ivar.is_full done_) then
                     Engine.Ivar.fill done_ (Engine.now () -. start)
               | _ -> ());
           let send_arp () =
             Switch.send sw
               (Packet.make ~src:uplink_port ~dst:Packet.Broadcast
                  ~kind:Packet.Arp_request ~seq:i ())
           in
           send_arp ();
           (* Retry loop on timeout. *)
           let rec watch attempt =
             Engine.spawn ~name:(Printf.sprintf "client-%d-timer" i)
               (fun () ->
                 Engine.sleep config.arp_timeout;
                 if not (Engine.Ivar.is_full done_) then begin
                   retried.(i) <- true;
                   if attempt < config.max_retries then begin
                     send_arp ();
                     watch (attempt + 1)
                   end
                   else
                     Engine.Ivar.fill done_ (Engine.now () -. start)
                 end)
           in
           watch 1;
           let rtt = Engine.Ivar.read done_ in
           rtts.(i) <- rtt
         in
         for i = 0 to config.clients - 1 do
           Engine.spawn ~name:(Printf.sprintf "client-%d" i) (client i);
           Engine.sleep config.arrival_interval
         done;
         (* Let stragglers finish, then stop the reaper so the
            simulation drains. *)
         Engine.sleep
           (float_of_int (config.max_retries + 1) *. config.arp_timeout);
         arp_drops := Switch.dropped_broadcast sw;
         reaper_live := false));
  let rtt_list =
    Array.to_list rtts |> List.filter (fun r -> not (Float.is_nan r))
  in
  {
    rtts = rtt_list;
    cdf = Cdf.of_samples rtt_list;
    timeouts =
      Array.fold_left (fun acc r -> if r then acc + 1 else acc) 0 retried;
    arp_drops = !arp_drops;
    vms_booted = !vms_booted;
    torn_down = !torn_down;
  }
