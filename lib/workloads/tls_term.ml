module Params = Lightvm_hv.Params
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
