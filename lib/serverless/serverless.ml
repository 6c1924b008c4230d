module Engine = Lightvm_sim.Engine
module Rng = Lightvm_sim.Rng
module Quantiles = Lightvm_metrics.Quantiles
module Series = Lightvm_metrics.Series
module Image = Lightvm_guest.Image
module Xen = Lightvm_hv.Xen
module Vmm = Lightvm_cluster.Vmm
module Machine = Lightvm_container.Machine
module Docker = Lightvm_container.Docker
module Layers = Lightvm_container.Layers

type policy = Cold_boot | Warm_pool | Container

let policy_name = function
  | Cold_boot -> "coldboot"
  | Warm_pool -> "warmpool"
  | Container -> "container"

let policy_of_string = function
  | "coldboot" -> Ok Cold_boot
  | "warmpool" -> Ok Warm_pool
  | "container" -> Ok Container
  | s ->
      Error
        (Printf.sprintf
           "unknown policy %S (expected coldboot, warmpool or container)" s)

type autoscaler = {
  min_target : int;
  max_target : int;
  interval : float;
  idle_rounds : int;
}

let default_autoscaler =
  { min_target = 4; max_target = 64; interval = 0.25; idle_rounds = 3 }

type config = {
  arrival : Arrival.process;
  duration : float;
  service_mean : float;
  concurrency : int;
  policy : policy;
  autoscaler : autoscaler;
  seed : int64;
}

let default_config ?arrival ?(duration = 5.) policy =
  let arrival =
    match arrival with
    | Some a -> a
    | None -> Arrival.Poisson { rate = 2000. }
  in
  {
    arrival;
    duration;
    service_mean = 0.001;
    concurrency = 12;
    policy;
    autoscaler = default_autoscaler;
    seed = 42L;
  }

type stats = {
  requests : int;
  completed : int;
  failures : int;
  latency : Quantiles.t;
  queue_depth : Series.t;
  pool_hits : int;
  pool_takes : int;
  peak_target : int;
  makespan : float;
}

let hit_rate s =
  if s.pool_takes = 0 then 0.
  else float_of_int s.pool_hits /. float_of_int s.pool_takes

let percentile_note ~label s =
  let us v = 1e6 *. v in
  let q p =
    if Quantiles.count s.latency = 0 then 0. else Quantiles.quantile s.latency p
  in
  let mean =
    if Quantiles.count s.latency = 0 then 0. else Quantiles.mean s.latency
  in
  Printf.sprintf
    "%s: %d req (%d ok, %d failed); p50 %.0f us, p99 %.0f us, p999 %.0f us, \
     mean %.0f us; pool hit rate %.3f; makespan %.3f s"
    label s.requests s.completed s.failures
    (us (q 0.50))
    (us (q 0.99))
    (us (q 0.999))
    (us mean) (hit_rate s) s.makespan

(* The name of request [idx]'s process and of its instance. *)
let fn_name idx = "fn-" ^ string_of_int idx

(* The policy-independent open-loop dispatcher. One arrival process
   sleeps the generator's gaps and fires requests; [concurrency] slots
   gate admission; a request that finds no free slot waits in FIFO
   order. Each admitted request runs in its own simulation process so
   service overlaps naturally; on release it hands its slot to the head
   of the queue. Arrivals stop after [duration] but the backlog drains
   to empty before the stats are cut, so overloaded configurations
   report the full sojourn tail rather than truncating it. *)
let run_open_loop ?control ~gen ~service_rng ~duration ~concurrency
    ~service_mean ~sample_every ~invoke ~pool_stats () =
  if concurrency < 1 then
    invalid_arg "Serverless.run_open_loop: concurrency must be >= 1";
  let start = Engine.now () in
  let t_end = start +. duration in
  let latency = Quantiles.create () in
  let queue_depth = Series.create ~unit_label:"requests" ~name:"queue-depth" () in
  let queue : (int * float * float) Queue.t = Queue.create () in
  let free = ref concurrency in
  let requests = ref 0 in
  let completed = ref 0 in
  let failures = ref 0 in
  let arrivals_done = ref false in
  let finished = ref false in
  let all_done = Engine.Ivar.create () in
  let in_system () = Queue.length queue + (concurrency - !free) in
  let check_done () =
    if
      !arrivals_done
      && Queue.is_empty queue
      && !free = concurrency
      && not (Engine.Ivar.is_full all_done)
    then Engine.Ivar.fill all_done ()
  in
  let rec start_request (idx, arrived, service_s) =
    decr free;
    Engine.spawn
      ~name:(fn_name idx)
      (fun () ->
        (if invoke idx service_s then begin
           Quantiles.add latency (Engine.now () -. arrived);
           incr completed
         end
         else incr failures);
        incr free;
        (match Queue.take_opt queue with
        | Some next -> start_request next
        | None -> ());
        check_done ())
  in
  Engine.spawn ~name:"arrivals" (fun () ->
      let idx = ref 0 in
      let rec loop () =
        let gap = Arrival.next_gap gen in
        Engine.sleep gap;
        if Engine.now () <= t_end then begin
          let req = (!idx, Engine.now (), Rng.exponential service_rng ~mean:service_mean) in
          incr idx;
          incr requests;
          if !free > 0 then start_request req else Queue.add req queue;
          loop ()
        end
        else begin
          arrivals_done := true;
          check_done ()
        end
      in
      loop ());
  Engine.spawn ~name:"sampler" (fun () ->
      let rec loop () =
        if not !finished then begin
          Series.add queue_depth
            ~x:(Engine.now () -. start)
            ~y:(float_of_int (in_system ()));
          Engine.sleep sample_every;
          loop ()
        end
      in
      loop ());
  (match control with
  | None -> ()
  | Some (interval, decide) ->
      Engine.spawn ~name:"autoscaler" (fun () ->
          let rec loop () =
            if not !finished then begin
              Engine.sleep interval;
              if not !finished then begin
                decide (in_system ());
                loop ()
              end
            end
          in
          loop ()));
  Engine.Ivar.read all_done;
  finished := true;
  let makespan = Engine.now () -. start in
  Series.add queue_depth ~x:makespan ~y:0.;
  let pool_hits, pool_takes = pool_stats () in
  {
    requests = !requests;
    completed = !completed;
    failures = !failures;
    latency;
    queue_depth;
    pool_hits;
    pool_takes;
    peak_target = 0;
    makespan;
  }

(* Function instances are minipython unikernels with no vifs or vbds:
   the flavor must match what the warm pool prefills, and a serverless
   instance that lives milliseconds has no use for hotplug. *)
let fn_image = Image.minipython

let vm_invoke host idx service_s =
  let name = fn_name idx in
  match Vmm.vm_create host (Vmm.vm_request ~name ~nics:0 ~disks:0 fn_image) with
  | Error _ -> false
  | Ok vi ->
      let domid = vi.Vmm.vi_domid in
      (match Vmm.vm_boot host ~domid with Ok () | Error _ -> ());
      Xen.consume_guest (Vmm.xen host) ~domid service_s;
      (match Vmm.vm_delete host ~domid with Ok () | Error _ -> ());
      true

let container_invoke eng _idx service_s =
  match Docker.run eng ~image:Layers.micropython_image () with
  | Error _ -> false
  | Ok c ->
      Engine.sleep service_s;
      Docker.stop eng c;
      true

let warm_pool host ~target =
  Vmm.set_pool_target host fn_image ~nics:0 ~disks:0 target;
  Vmm.prefill_pool host fn_image ~nics:0 ~disks:0

let run_node cfg host =
  let root = Rng.create cfg.seed in
  let arrival_rng = Rng.split root in
  let service_rng = Rng.split root in
  let gen = Arrival.generator cfg.arrival ~rng:arrival_rng in
  let sample_every = Float.max (cfg.duration /. 50.) 1e-3 in
  let core ?control ~invoke ~pool_stats () =
    run_open_loop ?control ~gen ~service_rng ~duration:cfg.duration
      ~concurrency:cfg.concurrency ~service_mean:cfg.service_mean
      ~sample_every ~invoke ~pool_stats ()
  in
  match cfg.policy with
  | Cold_boot ->
      core ~invoke:(vm_invoke host) ~pool_stats:(fun () -> (0, 0)) ()
  | Container ->
      let eng = Docker.create (Machine.create ~platform:(Vmm.platform host) ()) in
      core ~invoke:(container_invoke eng) ~pool_stats:(fun () -> (0, 0)) ()
  | Warm_pool ->
      let a = cfg.autoscaler in
      if a.min_target < 1 || a.max_target < a.min_target then
        invalid_arg "Serverless.run_node: bad autoscaler targets";
      let pool_target () = Vmm.pool_target host fn_image ~nics:0 ~disks:0 in
      let set_target t = Vmm.set_pool_target host fn_image ~nics:0 ~disks:0 t in
      let pool_stats () = Vmm.pool_stats host fn_image ~nics:0 ~disks:0 in
      warm_pool host ~target:a.min_target;
      let hits0, takes0 = pool_stats () in
      let peak = ref (pool_target ()) in
      let idle = ref 0 in
      let decide depth =
        let target = pool_target () in
        if depth > cfg.concurrency && target < a.max_target then begin
          (* backlog: double the pool, building the new shells now (the
             autoscaler process pays the dom0 time, as a real control
             loop would) *)
          idle := 0;
          let target' = min a.max_target (max 1 (2 * target)) in
          set_target target';
          Vmm.prefill_pool host fn_image ~nics:0 ~disks:0;
          if target' > !peak then peak := target'
        end
        else if depth = 0 then begin
          incr idle;
          if !idle >= a.idle_rounds && target > a.min_target then begin
            idle := 0;
            set_target (max a.min_target (target / 2))
          end
        end
        else idle := 0
      in
      let stats =
        core
          ~control:(a.interval, decide)
          ~invoke:(vm_invoke host)
          ~pool_stats:(fun () ->
            let hits, takes = pool_stats () in
            (hits - hits0, takes - takes0))
          ()
      in
      { stats with peak_target = !peak }

(* Erlang C: the probability an M/M/k arrival waits, and from it the
   mean wait E[Wq] = C(k, a) / (k mu - lambda). Computed with the
   running-term recurrence a^n/n! to stay finite for any reasonable
   k. *)
let erlang_c_wait ~rate ~service_mean ~servers =
  if servers < 1 then invalid_arg "Serverless.erlang_c_wait: servers";
  let a = rate *. service_mean in
  let k = float_of_int servers in
  if a >= k then
    invalid_arg "Serverless.erlang_c_wait: unstable system (rate >= capacity)";
  let rho = a /. k in
  let sum = ref 0. in
  let term = ref 1. in
  for n = 0 to servers - 1 do
    sum := !sum +. !term;
    term := !term *. a /. float_of_int (n + 1)
  done;
  let tail = !term /. (1. -. rho) in
  let p_wait = tail /. (!sum +. tail) in
  p_wait *. service_mean /. (k *. (1. -. rho))
