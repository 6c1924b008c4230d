module Params = Lightvm_hv.Params
module Cpu = Lightvm_sim.Cpu
module Tls = Lightvm_net.Tls
module Stack = Lightvm_net.Stack

type backend =
  | Bare_metal
  | Tinyx_vm
  | Unikernel

let backend_name = function
  | Bare_metal -> "bare metal"
  | Tinyx_vm -> "Tinyx"
  | Unikernel -> "unikernel"

let stack_of = function
  | Bare_metal | Tinyx_vm -> Stack.linux
  | Unikernel -> Stack.lwip

(* Virtualization tax on the VM backends (grant copies, event
   channels); Tinyx performance "is very similar to that of running
   processes on a bare-metal Linux distribution". *)
let virt_overhead = function
  | Bare_metal -> 1.0
  | Tinyx_vm -> 1.04
  | Unikernel -> 1.02

let per_request_cpu backend =
  Tls.serve_request_cpu Tls.rsa_1024 ~stack:(stack_of backend) ~response_kb:0.2
  *. virt_overhead backend

let throughput ?(platform = Params.xeon_e5_2690) backend ~instances =
  if instances <= 0 then 0.
  else begin
    (* Closed-loop clients keep every instance busy; an instance is
       single-threaded, so it can use at most one core, and instances
       sharing a core split it. *)
    let cores = platform.Params.cores in
    let busy_cores = min instances cores in
    let capacity =
      float_of_int busy_cores *. platform.Params.speed
    in
    capacity /. per_request_cpu backend
  end

let sweep ?platform backend ~instances =
  List.map (fun n -> (n, throughput ?platform backend ~instances:n))
    instances

type memory_point = {
  mem_backend : backend;
  instance_mem_mb : float;
  boot_ms : float;
}

let footprint = function
  | Bare_metal ->
      { mem_backend = Bare_metal; instance_mem_mb = 2.5; boot_ms = 4. }
  | Tinyx_vm ->
      { mem_backend = Tinyx_vm; instance_mem_mb = 40.; boot_ms = 190. }
  | Unikernel ->
      { mem_backend = Unikernel; instance_mem_mb = 16.; boot_ms = 6. }

let serve_one cpu ~core backend =
  (* Drive the protocol state machine for real, then charge the
     backend's cost for the whole exchange. *)
  let final =
    List.fold_left
      (fun state msg ->
        match Tls.step state msg with
        | Ok s -> s
        | Error e -> invalid_arg ("TLS handshake broke: " ^ e))
      Tls.initial Tls.handshake_messages
  in
  assert (Tls.is_complete final);
  Cpu.consume cpu ~core (per_request_cpu backend)
