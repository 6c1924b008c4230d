module Engine = Lightvm_sim.Engine
module Cpu = Lightvm_sim.Cpu
module Trace = Lightvm_trace.Trace
module Tbl = Hashtbl.Make (Int)

type error = ENOMEM | ENOENT | EINVAL

type t = {
  platform : Params.platform;
  costs : Params.costs;
  frames : Frames.t;
  evtchn : Evtchn.t;
  gnttab : Gnttab.t;
  devpage : Devpage.t;
  cpu : Cpu.t;
  domains : Domain.t Tbl.t;
  mutable next_domid : int;
  mutable rr_next : int; (* round-robin index into guest cores *)
  mutable hypercalls : int;
}

(* The hypervisor itself occupies a fixed slice of host memory. *)
let xen_own_mem_kb = 128 * 1024

let xen_owner = -1

let platform t = t.platform
let costs t = t.costs
let cpu t = t.cpu
let evtchn t = t.evtchn
let gnttab t = t.gnttab
let devpage t = t.devpage
let hypercalls t = t.hypercalls

(* Dom0 owns cores 0 .. dom0_cores - 1 and guests take the rest, round
   robin; with no guest cores left every guest shares core 0. *)
let guest_core t i =
  match Params.guest_cores t.platform with
  | n when n <= 0 -> 0
  | n -> t.platform.Params.dom0_cores + (i mod n)

(* Every hypercall is one guest->hypervisor->guest round trip: two
   privilege crossings. With tracing off nothing but the charge runs. *)
let hypercall ?(op = "hypercall") t ~cost =
  t.hypercalls <- t.hypercalls + 1;
  if Trace.enabled () then begin
    Trace.Counter.incr "hv.hypercalls";
    Trace.Counter.incr ~by:2 "hv.crossings";
    Trace.Span.with_ ~category:"hv" op (fun () ->
        Engine.sleep (t.costs.Params.hypercall_base +. cost))
  end
  else Engine.sleep (t.costs.Params.hypercall_base +. cost)

let dom0_mem_mb = 4096

let boot ?(platform = Params.xeon_e5_1630) ?(costs = Params.default_costs) () =
  let frames = Frames.create ~total_kb:(platform.Params.ram_mb * 1024) in
  (match Frames.alloc frames ~owner:xen_owner ~kb:xen_own_mem_kb with
  | Ok () -> ()
  | Error Frames.ENOMEM -> invalid_arg "Xen.boot: host too small");
  (match Frames.alloc frames ~owner:0 ~kb:(dom0_mem_mb * 1024) with
  | Ok () -> ()
  | Error Frames.ENOMEM -> invalid_arg "Xen.boot: host too small for Dom0");
  let cpu =
    Cpu.create ~speed:platform.Params.speed ~ncores:platform.Params.cores ()
  in
  let domains = Tbl.create 64 in
  let dom0 =
    Domain.make ~domid:0 ~name:"Domain-0" ~max_mem_kb:(dom0_mem_mb * 1024)
      ~core:0
  in
  Domain.set_state dom0 Domain.Running;
  Tbl.replace domains 0 dom0;
  {
    platform;
    costs;
    frames;
    evtchn = Evtchn.create ();
    gnttab = Gnttab.create ();
    devpage = Devpage.create ();
    cpu;
    domains;
    next_domid = 1;
    rr_next = 0;
    hypercalls = 0;
  }

let find_domain t ~domid = Tbl.find t.domains domid

let domain t ~domid =
  match Tbl.find t.domains domid with
  | dom -> Some dom
  | exception Not_found -> None

let domains t =
  List.sort
    (fun a b -> compare (Domain.domid a) (Domain.domid b))
    (Tbl.fold (fun _ d acc -> d :: acc) t.domains [])

let guest_count t = Tbl.length t.domains - 1

let overhead_kb t ~mem_kb =
  t.costs.Params.domain_fixed_overhead_kb
  + int_of_float
      (t.costs.Params.domain_mem_overhead_fraction *. float_of_int mem_kb)

let create_domain t ~name ~vcpus ~mem_mb =
  let c = t.costs in
  hypercall ~op:"domctl_create" t
    ~cost:
      (c.Params.domctl_create
      +. (float_of_int vcpus *. c.Params.vcpu_init));
  let mem_kb = int_of_float (mem_mb *. 1024.) in
  let overhead = overhead_kb t ~mem_kb in
  let domid = t.next_domid in
  match Frames.alloc t.frames ~owner:domid ~kb:overhead with
  | Error Frames.ENOMEM -> Error ENOMEM
  | Ok () ->
      t.next_domid <- t.next_domid + 1;
      let core = guest_core t t.rr_next in
      t.rr_next <- t.rr_next + 1;
      let dom = Domain.make ~domid ~name ~max_mem_kb:mem_kb ~core in
      Tbl.replace t.domains domid dom;
      Devpage.setup t.devpage ~domid;
      Ok dom

(* The domain's RAM is the [mem_mb] it was created with; populating it
   again allocates it again. *)
let populate_memory t ~domid =
  match Tbl.find t.domains domid with
  | exception Not_found -> Error ENOENT
  | dom -> (
      let mem_kb = Domain.max_mem_kb dom in
      let pages = mem_kb / t.costs.Params.page_size_kb in
      hypercall ~op:"populate_physmap" t
        ~cost:(float_of_int pages *. t.costs.Params.per_page_populate);
      match Frames.alloc t.frames ~owner:domid ~kb:mem_kb with
      | Error Frames.ENOMEM -> Error ENOMEM
      | Ok () -> Ok ())

let load_image t ~domid ~size_mb =
  if not (Tbl.mem t.domains domid) then Error ENOENT
  else begin
    let pages = Params.pages_of_mb_f t.costs size_mb in
    hypercall ~op:"load_image" t
      ~cost:(float_of_int pages *. t.costs.Params.per_page_copy);
    Ok ()
  end

let unpause t ~domid =
  match Tbl.find t.domains domid with
  | exception Not_found -> Error ENOENT
  | dom -> (
      hypercall ~op:"domctl_unpause" t ~cost:5.0e-6;
      match Domain.state dom with
      | Domain.Paused | Domain.Running ->
          Domain.set_state dom Domain.Running;
          Ok ()
      | Domain.Shutdown _ | Domain.Dying -> Error EINVAL)

let pause t ~domid =
  match Tbl.find t.domains domid with
  | exception Not_found -> Error ENOENT
  | dom -> (
      hypercall ~op:"domctl_pause" t ~cost:5.0e-6;
      match Domain.state dom with
      | Domain.Running | Domain.Paused ->
          Domain.set_state dom Domain.Paused;
          Ok ()
      | Domain.Shutdown _ | Domain.Dying -> Error EINVAL)

let shutdown t ~domid ~reason =
  match Tbl.find t.domains domid with
  | exception Not_found -> Error ENOENT
  | dom ->
      hypercall ~op:"sched_shutdown" t ~cost:10.0e-6;
      Domain.set_state dom (Domain.Shutdown reason);
      Ok ()

let destroy t ~domid =
  if domid = 0 then Error EINVAL
  else
    match Tbl.find t.domains domid with
    | exception Not_found -> Error ENOENT
    | dom ->
        Domain.set_state dom Domain.Dying;
        hypercall ~op:"domctl_destroy" t ~cost:t.costs.Params.domctl_destroy;
        ignore (Evtchn.close_all t.evtchn ~domid);
        (* Peer-side teardown, all covered by the one domctl_destroy
           charge: channels other domains had bound to (or reserved
           for) this one, grant entries it owned, mappings it held.
           Each table finds them through the domain's own index. *)
        ignore (Evtchn.close_peers_of t.evtchn ~domid);
        ignore (Gnttab.release_domain t.gnttab ~domid);
        Devpage.teardown t.devpage ~domid;
        ignore (Frames.free_all t.frames ~owner:domid);
        Tbl.remove t.domains domid;
        Ok ()

let consume_guest t ~domid work =
  match Tbl.find t.domains domid with
  | exception Not_found -> invalid_arg "Xen.consume_guest: no such domain"
  | dom -> Cpu.consume t.cpu ~core:(Domain.core dom) work

let consume_dom0 t work =
  let core =
    Cpu.least_loaded t.cpu ~first:0 ~count:t.platform.Params.dom0_cores
  in
  Cpu.consume t.cpu ~core work

let free_mem_kb t = Frames.free_kb t.frames
let used_mem_kb t = Frames.used_kb t.frames
let domain_mem_kb t ~domid = Frames.owned_kb t.frames ~owner:domid

(* Every frame is held by Xen, Dom0 or a live guest: [destroy] frees a
   domain's frames as it retires the domid. *)
let guest_mem_kb t =
  used_mem_kb t
  - Frames.owned_kb t.frames ~owner:xen_owner
  - Frames.owned_kb t.frames ~owner:0
