module Engine = Lightvm_sim.Engine
module Xen = Lightvm_hv.Xen
module Image = Lightvm_guest.Image
module Mode = Lightvm_toolstack.Mode
module Vmm = Lightvm_cluster.Vmm
module Interp = Lightvm_minipy.Interp
module Value = Lightvm_minipy.Value

type config = {
  requests : int;
  inter_arrival : float;
  mode : Mode.t;
  program : string;
  compute_seconds : float;
}

let approx_e_program =
  {|
def approx_e(n):
    total = 0.0
    fact = 1.0
    i = 0
    while i <= n:
        if i > 0:
            fact = fact * i
        total = total + 1.0 / fact
        i = i + 1
    return total

print(approx_e(17))
|}

let default_config mode =
  {
    requests = 1000;
    inter_arrival = 0.250;
    mode;
    program = approx_e_program;
    compute_seconds = 0.8;
  }

type result = {
  service_times : (int * float) list;
  concurrency : (float * int) list;
  outputs_ok : bool;
  failures : int;
  makespan : float;
}

let expected_output program =
  match Interp.run program with
  | Ok { Interp.stdout; _ } -> stdout
  | Error msg -> invalid_arg ("lambda program is broken: " ^ msg)

let run config =
  let expected = expected_output config.program in
  let service_times = ref [] in
  let concurrency = ref [] in
  let live = ref 0 in
  let failures = ref 0 in
  let bad_output = ref false in
  let makespan = ref 0. in
  ignore
    (Engine.run (fun () ->
         let host = Vmm.create ~mode:config.mode () in
         let vm_request i =
           Vmm.vm_request ~name:(Printf.sprintf "lambda-%d" i)
             Image.minipython
         in
         (* Warm the shell pool (split modes only) for the flavor that
            every request asks for. *)
         let flavor = vm_request 0 in
         Vmm.prefill_pool host flavor.Vmm.req_image
           ~nics:flavor.Vmm.req_nics ~disks:flavor.Vmm.req_disks;
         let finished = ref 0 in
         let all_done = Engine.Ivar.create () in
         (* Sampler for the Fig 18 concurrency curve. *)
         let sampling = ref true in
         Engine.spawn ~name:"lambda-sampler" (fun () ->
             while !sampling do
               Engine.sleep 1.0;
               concurrency := (Engine.now (), !live) :: !concurrency
             done);
         let handle_request i () =
           let arrived = Engine.now () in
           incr live;
           (match Vmm.vm_create host (vm_request i) with
           | Error _ -> incr failures
           | Ok vi ->
               let domid = vi.Vmm.vi_domid in
               ignore (Vmm.vm_boot host ~domid);
               (* Run the program for real; charge its work as guest
                  CPU, scaled so this program costs
                  [config.compute_seconds]. *)
               (match Interp.run config.program with
               | Error _ -> bad_output := true
               | Ok { Interp.stdout; _ } ->
                   if stdout <> expected then bad_output := true);
               Xen.consume_guest (Vmm.xen host) ~domid config.compute_seconds;
               ignore (Vmm.vm_delete host ~domid));
           decr live;
           service_times := (i, Engine.now () -. arrived) :: !service_times;
           incr finished;
           if !finished = config.requests then
             Engine.Ivar.fill all_done ()
         in
         for i = 0 to config.requests - 1 do
           Engine.spawn
             ~name:(Printf.sprintf "lambda-req-%d" i)
             (handle_request i);
           Engine.sleep config.inter_arrival
         done;
         Engine.Ivar.read all_done;
         makespan := Engine.now ();
         sampling := false));
  {
    service_times = List.sort compare !service_times;
    concurrency = List.rev !concurrency;
    outputs_ok = not !bad_output;
    failures = !failures;
    makespan = !makespan;
  }
