module Engine = Lightvm_sim.Engine
module Frames = Lightvm_hv.Frames

type container = {
  id : int;
  image : Layers.image;
  c_rss_kb : int;
  mutable paused : bool;
  mutable alive : bool;
}

type error =
  | Out_of_memory
  | Engine_wedged

type t = {
  machine : Machine.t;
  store : Layers.store;
  containers : (int, container) Hashtbl.t;
  mutable next_id : int;
  mutable pool_chunks : int;
  mutable pool_used_kb : int;
  mutable is_wedged : bool;
}

(* Cost constants (reference-speed CPU seconds), calibrated to
   "Docker containers start in around 200ms" (Fig 4) ramping towards
   ~1s at 3,000 containers on the slower AMD machine (Fig 10). *)
let cost_client_daemon = 0.020
let cost_containerd = 0.032
let cost_namespaces = 0.026
let cost_cgroups = 0.016
let cost_network = 0.036
let cost_per_layer_mount = 0.009
let cost_bookkeeping_per_container = 2.0e-5
let cost_bookkeeping_quadratic = 6.5e-8
let cost_pool_grow = 1.3
let cost_pause = 0.008
let cost_unpause = 0.007
let cost_stop = 0.045

let engine_owner = -2
let pool_owner = -3

let engine_base_rss_kb = 260 * 1024
let shim_rss_kb = 2_300
let net_rss_kb = 280
let pool_chunk_kb = 8 * 1024 * 1024
let pool_reserve_per_container_kb = 40 * 1024

let create machine =
  (match
     Frames.alloc (Machine.mem machine) ~owner:engine_owner
       ~kb:engine_base_rss_kb
   with
  | Ok () -> ()
  | Error Frames.ENOMEM -> invalid_arg "Docker.create: host too small");
  let t =
    {
      machine;
      store = Layers.create_store ();
      containers = Hashtbl.create 64;
      next_id = 1;
      pool_chunks = 0;
      pool_used_kb = 0;
      is_wedged = false;
    }
  in
  (* The storage driver sets up its first thin-pool chunk at daemon
     start, so the first [docker run] does not pay for pool growth. *)
  (match
     Frames.alloc (Machine.mem machine) ~owner:pool_owner ~kb:pool_chunk_kb
   with
  | Ok () -> t.pool_chunks <- 1
  | Error Frames.ENOMEM -> () (* wedge on first reservation instead *));
  t

let running t =
  Hashtbl.fold
    (fun _ c acc -> if c.alive then acc + 1 else acc)
    t.containers 0

let wedged t = t.is_wedged

(* Reserve thin-pool space, growing the pool a chunk at a time. *)
let reserve_pool t kb =
  if t.pool_used_kb + kb <= t.pool_chunks * pool_chunk_kb then begin
    t.pool_used_kb <- t.pool_used_kb + kb;
    Ok false
  end
  else
    match
      Frames.alloc (Machine.mem t.machine) ~owner:pool_owner
        ~kb:pool_chunk_kb
    with
    | Ok () ->
        t.pool_chunks <- t.pool_chunks + 1;
        t.pool_used_kb <- t.pool_used_kb + kb;
        Ok true
    | Error Frames.ENOMEM ->
        t.is_wedged <- true;
        Error ()

let run t ?(rss_kb = 1_500) ~image () =
  if t.is_wedged then Error Engine_wedged
  else begin
    ignore (Layers.pull t.store image);
    (* Client -> daemon -> containerd -> runc. *)
    Machine.consume_any t.machine cost_client_daemon;
    Machine.consume_any t.machine cost_containerd;
    (* Storage: per-layer overlay mounts plus the thin-pool
       reservation for the writable layer. *)
    Machine.consume_any t.machine
      (float_of_int (List.length image.Layers.layers)
      *. cost_per_layer_mount);
    match reserve_pool t pool_reserve_per_container_kb with
    | Error () -> Error Out_of_memory
    | Ok grew ->
        if grew then
          (* Growing the pool stalls the engine: the latency spikes the
             paper ties to "large jumps in memory consumption". *)
          Machine.consume_any t.machine cost_pool_grow;
        (* Namespaces, cgroups, veth + bridge. *)
        Machine.consume_any t.machine cost_namespaces;
        Machine.consume_any t.machine cost_cgroups;
        Machine.consume_any t.machine cost_network;
        (* Daemon bookkeeping: list scans plus graph-driver metadata
           walks that degrade superlinearly with population (the Fig 10
           ramp towards ~1 s near 3000 containers). *)
        let n = float_of_int (running t) in
        Machine.consume_any t.machine
          ((n *. cost_bookkeeping_per_container)
          +. (n *. n *. cost_bookkeeping_quadratic));
        let total_rss = rss_kb + shim_rss_kb + net_rss_kb in
        let id = t.next_id in
        (match
           Frames.alloc (Machine.mem t.machine) ~owner:id ~kb:total_rss
         with
        | Error Frames.ENOMEM -> Error Out_of_memory
        | Ok () ->
            t.next_id <- t.next_id + 1;
            let c =
              { id; image; c_rss_kb = total_rss; paused = false;
                alive = true }
            in
            Hashtbl.replace t.containers id c;
            Ok c)
  end

let stop t c =
  if c.alive then begin
    Machine.consume_any t.machine cost_stop;
    c.alive <- false;
    ignore (Frames.free_all (Machine.mem t.machine) ~owner:c.id);
    t.pool_used_kb <- t.pool_used_kb - pool_reserve_per_container_kb;
    Hashtbl.remove t.containers c.id
  end

let pause t c =
  if c.alive && not c.paused then begin
    Machine.consume_any t.machine cost_pause;
    c.paused <- true
  end

let unpause t c =
  if c.alive && c.paused then begin
    Machine.consume_any t.machine cost_unpause;
    c.paused <- false
  end

let is_paused c = c.paused

let rss_kb t =
  Hashtbl.fold
    (fun _ c acc -> if c.alive then acc + c.c_rss_kb else acc)
    t.containers engine_base_rss_kb

let reserved_kb t = t.pool_chunks * pool_chunk_kb
