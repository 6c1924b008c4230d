module Engine = Lightvm_sim.Engine
module Image = Lightvm_guest.Image
module Switch = Lightvm_net.Switch
module Packet = Lightvm_net.Packet
module Migrate = Lightvm_toolstack.Migrate
module Xen = Lightvm_hv.Xen

(* [views] is the scheduler's picture of the hosts, by id. [placed]
   brings it up to date before each placement, replacing only the
   entries whose host changed, so a placement allocates nothing per
   host. *)
type t = {
  nodes : Vmm.t array;
  hosts_per_rack : int;
  views : Scheduler.host_view array;
  sched : Scheduler.t;
  net : Switch.t;
  rx : int array;  (* control-plane packets delivered per host port *)
  mutable seq : int;  (* packet sequence numbers *)
  mutable lost : Vmm.resources;  (* footprint freed by lost guests *)
}

let host t i =
  if i < 0 || i >= Array.length t.nodes then
    invalid_arg (Printf.sprintf "Cluster.host: no host %d" i);
  t.nodes.(i)

let hosts t = Array.to_list t.nodes

let switch t = t.net

let vm_count t =
  Array.fold_left (fun acc h -> acc + Vmm.vm_count h) 0 t.nodes

let view ~hosts_per_rack i h =
  {
    Scheduler.hv_id = i;
    hv_rack = i / hosts_per_rack;
    hv_vms = Vmm.vm_count h;
    hv_free_kb = Xen.free_mem_kb (Vmm.xen h);
  }

(* [t.views] with every host's live VM count and free memory. They are
   read on every call: hosts also change outside the cluster (a VM
   deleted through its host's {!Vmm}). *)
let placed t =
  for i = 0 to Array.length t.nodes - 1 do
    let h = t.nodes.(i) and v = t.views.(i) in
    if
      v.Scheduler.hv_vms <> Vmm.vm_count h
      || v.Scheduler.hv_free_kb <> Xen.free_mem_kb (Vmm.xen h)
    then t.views.(i) <- view ~hosts_per_rack:t.hosts_per_rack i h
  done;
  t.views

let views t = Array.copy (placed t)

(* Warm one host: a full create+boot+destroy cycle through its own API.
   The first creation materialises shared store directories (/vm, the
   backend kind levels) that persist for the host's lifetime; doing it
   on every host up front makes resource snapshots comparable across
   hosts and migration-invariant (a fresh destination would otherwise
   gain those directories mid-migration and read as a phantom). *)
let warm h =
  match Vmm.vm_create h (Vmm.vm_request Image.daytime) with
  | Error e ->
      invalid_arg ("Cluster.create: warm-up failed: " ^ Vmm.error_to_string e)
  | Ok vi ->
      let domid = vi.Vmm.vi_domid in
      (match Vmm.vm_boot h ~domid with Ok () | Error _ -> ());
      ignore (Vmm.vm_delete h ~domid)

let create ~hosts:n ?(racks = 1) ?mode ?pool_target ~policy () =
  if n < 1 then invalid_arg "Cluster.create: hosts must be >= 1";
  if racks < 1 || racks > n then
    invalid_arg "Cluster.create: racks must be in 1..hosts";
  let partitions = Engine.partition_count () in
  let partitioned = partitions > 0 in
  if partitioned && partitions < n then
    invalid_arg
      "Cluster.create: a partitioned run needs at least one host \
       partition per host";
  let nodes =
    Array.init n (fun i -> Vmm.create ~host_id:i ?mode ?pool_target ())
  in
  let net = Switch.create () in
  let rx = Array.make n 0 in
  (* Host [i] owns switch port [i]; in a partitioned run it also owns
     partition [i + 1] (partition 0 is the toolstack/control plane where
     [create] itself runs), so deliveries to its port execute on its
     partition. The rx counters are per-port and therefore disjoint
     across partitions. *)
  Array.iteri
    (fun i _ ->
      Switch.attach
        ?partition:(if partitioned then Some (i + 1) else None)
        net ~port:i
        ~handler:(fun _ -> rx.(i) <- rx.(i) + 1))
    nodes;
  (* Warm cycles run here, sequentially in the calling process (partition
     0), strictly before any per-partition workload starts — so host
     state is never touched from two partitions in the same window. *)
  Array.iter warm nodes;
  let hosts_per_rack = (n + racks - 1) / racks in
  {
    nodes;
    hosts_per_rack;
    views = Array.mapi (view ~hosts_per_rack) nodes;
    sched = Scheduler.make policy;
    net;
    rx;
    seq = 0;
    lost = Vmm.zero_resources;
  }

(* ------------------------------------------------------------------ *)
(* Placement *)

type placement = { pl_host : int; pl_vm : Vmm.vm_info }

type error =
  | No_capacity of string
  | Api of { host : int; err : Vmm.error }

let error_to_string = function
  | No_capacity msg -> "no capacity: " ^ msg
  | Api { host; err } ->
      Printf.sprintf "host %d: %s" host (Vmm.error_to_string err)

(* Control-plane traffic: announce an operation on the switch. Delivery
   is asynchronous (forwarding latency), so sending never blocks the
   caller and cannot perturb lifecycle timings. *)
let announce t ~src ~dst payload =
  t.seq <- t.seq + 1;
  Switch.send t.net
    (Packet.make ~src ~dst:(Packet.Addr dst) ~kind:Packet.Tcp ~payload
       ~seq:t.seq ())

let launch t req =
  let mem_kb =
    int_of_float (ceil (req.Vmm.req_image.Image.mem_mb *. 1024.))
  in
  match Scheduler.place t.sched ~hosts:(placed t) ~mem_kb with
  | Error msg -> Error (No_capacity msg)
  | Ok id -> (
      (* The control plane (using the destination's own port as its
         ingress) tells host [id] to create the VM. *)
      announce t ~src:id ~dst:id "vm.create";
      match Vmm.vm_create t.nodes.(id) req with
      | Error err -> Error (Api { host = id; err })
      | Ok vi -> Ok { pl_host = id; pl_vm = vi })

let prefill_pools t image ~nics ~disks =
  Array.iter (fun h -> Vmm.prefill_pool h image ~nics ~disks) t.nodes

(* ------------------------------------------------------------------ *)
(* Resource accounting *)

let live_resources t =
  Array.fold_left
    (fun acc h -> Vmm.add_resources acc (Vmm.resources h))
    Vmm.zero_resources t.nodes

let lost_resources t = t.lost

let resources t = Vmm.add_resources (live_resources t) t.lost

let check_leak t ~before =
  match Vmm.diff_resources ~before ~after:(resources t) with
  | [] -> Ok ()
  | leaks -> Error (String.concat ", " leaks)

(* ------------------------------------------------------------------ *)
(* Migration *)

let migrate_vm t ~src ~dst ~domid =
  let s = host t src and d = host t dst in
  if src = dst then invalid_arg "Cluster.migrate_vm: src = dst";
  announce t ~src ~dst "vm.send-migration";
  let pair_before = Vmm.add_resources (Vmm.resources s) (Vmm.resources d) in
  match Vmm.vm_migrate ~src:s ~dst:d ~domid with
  | Ok (vi, stats) ->
      (* Block until the resumed guest is up again: the move is only
         done once the guest runs, and it leaves the cluster settled —
         no frontend reconnects still in flight to smear the resource
         snapshots of whatever operation comes next. *)
      ignore (Vmm.vm_boot d ~domid:vi.Vmm.vi_domid);
      let vi =
        match Vmm.vm_info d ~domid:vi.Vmm.vi_domid with
        | Ok fresh -> fresh
        | Error _ -> vi
      in
      Ok (vi, stats)
  | Error (Vmm.Vm_migration_failed _ as err) ->
      (* The guest is gone from both sides; whatever footprint vanished
         from the pair is a modeled loss, not a leak. Migration runs
         inline on this fiber, so nothing else touched the pair. *)
      let pair_after =
        Vmm.add_resources (Vmm.resources s) (Vmm.resources d)
      in
      t.lost <-
        Vmm.add_resources t.lost (Vmm.sub_resources pair_before pair_after);
      Error (Api { host = src; err })
  | Error err -> Error (Api { host = src; err })

type move_report = {
  mv_attempted : int;
  mv_moved : int;
  mv_lost : int;
  mv_stranded : int;
  mv_seconds : float;
}

let drain t ~host:src =
  ignore (host t src);
  let t0 = Engine.now () in
  let attempted = ref 0 and moved = ref 0 and lost = ref 0 in
  let stranded = ref 0 in
  let victims = Vmm.vm_list t.nodes.(src) in
  List.iter
    (fun (vi : Vmm.vm_info) ->
      let mem_kb = int_of_float (ceil (vi.Vmm.vi_memory_mb *. 1024.)) in
      let views = placed t in
      let others =
        Array.init (Array.length views - 1) (fun i ->
            views.(if i < src then i else i + 1))
      in
      match Scheduler.place t.sched ~hosts:others ~mem_kb with
      | Error _ -> incr stranded
      | Ok dst -> (
          incr attempted;
          match migrate_vm t ~src ~dst ~domid:vi.Vmm.vi_domid with
          | Ok _ -> incr moved
          | Error (Api { err = Vmm.Vm_migration_failed _; _ }) -> incr lost
          | Error _ -> incr stranded))
    victims;
  {
    mv_attempted = !attempted;
    mv_moved = !moved;
    mv_lost = !lost;
    mv_stranded = !stranded;
    mv_seconds = Engine.now () -. t0;
  }

let rebalance t () =
  let t0 = Engine.now () in
  let bound = 4 * vm_count t in
  let attempted = ref 0 and moved = ref 0 and lost = ref 0 in
  let stranded = ref 0 in
  let continue = ref true in
  while !continue && !attempted < bound do
    let counts = Array.map Vmm.vm_count t.nodes in
    let hi = ref 0 and lo = ref 0 in
    Array.iteri
      (fun i c ->
        if c > counts.(!hi) then hi := i;
        if c < counts.(!lo) then lo := i)
      counts;
    if counts.(!hi) - counts.(!lo) <= 1 then continue := false
    else
      match Vmm.vm_list t.nodes.(!hi) with
      | [] -> continue := false
      | vi :: _ -> (
          (* vm_list is domid-ascending: the oldest VM moves first. *)
          incr attempted;
          match migrate_vm t ~src:!hi ~dst:!lo ~domid:vi.Vmm.vi_domid with
          | Ok _ -> incr moved
          | Error (Api { err = Vmm.Vm_migration_failed _; _ }) -> incr lost
          | Error _ ->
              incr stranded;
              continue := false)
  done;
  {
    mv_attempted = !attempted;
    mv_moved = !moved;
    mv_lost = !lost;
    mv_stranded = !stranded;
    mv_seconds = Engine.now () -. t0;
  }
