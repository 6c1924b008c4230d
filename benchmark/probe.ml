(* Host-time attribution for the traced benchmark run.

   The simulator is one domain running cooperative processes, and every
   layer call may block in virtual time, so a span's wall-clock duration
   says nothing about the host time its own code used. Instead the
   probe cuts host time into slices: a slice ends at every process
   spawn, every park and every span boundary, and each slice is charged
   to the process that closes it — to its innermost open span, or, when
   it has none, to its process kind (from its spawn name). A slice
   closed by a spawn holds engine dispatch and the tail of whatever ran
   before (code after a process's last boundary); it is charged to the
   residual, since the new process has not run yet.

   Spans come only from the benchmark's own code, around each call into
   a layer. The probe reads clocks and counters and never touches model
   state, so a traced round simulates exactly what an untraced one
   does (the harness checks the digests). *)

module Engine = Lightvm_sim.Engine
module Quantiles = Lightvm_metrics.Quantiles

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* The process's CPU time, which the end-to-end host times use. *)
external cpu_ns : unit -> int = "lvbench_cpu_ns" [@@noalloc]

type frame = {
  f_name : string;
  f_start : int;
  mutable f_self_ns : int;
  mutable f_self_words : float;
}

type proc = { kind : string; mutable stack : frame list }

type bucket = { mutable b_ns : int; mutable b_words : float }

type span_stats = {
  mutable calls : int;
  mutable s_self_ns : int;
  mutable s_words : float;
  per_call : Quantiles.t;  (* self seconds of each call *)
}

type raw = { r_name : string; r_tid : int; r_start : int; r_dur : int }

let raw_cap = 100_000

type t = {
  mutable on : bool;
  mutable last_ns : int;
  mutable last_words : float;
  mutable traced_ns : int;  (* total host ns inside traced windows *)
  mutable window_start : int;
  procs : (int, proc) Hashtbl.t;
  buckets : (string, bucket) Hashtbl.t;
  spans : (string, span_stats) Hashtbl.t;
  mutable spawns : int;
  mutable parks : int;
  mutable wakes : int;
  mutable raws : raw list;
  mutable nraw : int;
  origin : int;
}

let residual = "residual"
let harness = "bench.harness"

let st =
  {
    on = false;
    last_ns = 0;
    last_words = 0.;
    traced_ns = 0;
    window_start = 0;
    procs = Hashtbl.create 1024;
    buckets = Hashtbl.create 32;
    spans = Hashtbl.create 32;
    spawns = 0;
    parks = 0;
    wakes = 0;
    raws = [];
    nraw = 0;
    origin = now_ns ();
  }

let has_prefix s p =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let has_suffix s p =
  let n = String.length s and m = String.length p in
  n >= m && String.sub s (n - m) m = p

(* The process kinds: which layer a process works for when it runs
   outside any benchmark span. *)
let kind_of_name name =
  if has_prefix name "fn-" || name = "arrivals" || name = "sampler"
     || name = "autoscaler"
  then "serverless.dispatch"
  else if name = "chaos-daemon-refill" then "toolstack.refill"
  else if has_prefix name "guest-" then
    if has_suffix name "-idle" then "guest.idle" else "guest.boot"
  else if has_prefix name "xs-watch-" then "xs.watch_delivery"
  else if name = "evtchn-handler" then "hv.evtchn_handler"
  else if name = "switch-delivery" then "net.switch_delivery"
  else harness

(* Spans that share a layer bucket; every other span is its own. *)
let bucket_of_span = function
  | "sim.checkpoint.freeze" | "sim.checkpoint.thaw" -> "sim.checkpoint"
  | "vmm.set_pool_target" | "vmm.prefill_pool" | "serverless.warm_pool" ->
      "serverless.prefill"
  | "serverless.run_open_loop" -> "serverless.dispatch"
  | name -> name

let key () = (Engine.current_partition () lsl 32) lor Engine.self_pid ()

let proc_of k =
  match Hashtbl.find_opt st.procs k with
  | Some p -> p
  | None ->
      (* Processes spawned before tracing started (and code outside any
         simulation) belong to the harness. *)
      let p = { kind = harness; stack = [] } in
      Hashtbl.replace st.procs k p;
      p

let charge name ns words =
  let b =
    match Hashtbl.find_opt st.buckets name with
    | Some b -> b
    | None ->
        let b = { b_ns = 0; b_words = 0. } in
        Hashtbl.replace st.buckets name b;
        b
  in
  b.b_ns <- b.b_ns + ns;
  b.b_words <- b.b_words +. words

(* End the current slice and hand it to [k]'s innermost span or kind
   ([None] charges the residual). *)
let close_slice k =
  let t = now_ns () and w = Gc.minor_words () in
  let ns = t - st.last_ns and words = w -. st.last_words in
  st.last_ns <- t;
  st.last_words <- w;
  match k with
  | None -> charge residual ns words
  | Some k -> (
      let p = proc_of k in
      match p.stack with
      | f :: _ ->
          f.f_self_ns <- f.f_self_ns + ns;
          f.f_self_words <- f.f_self_words +. words;
          charge (bucket_of_span f.f_name) ns words
      | [] -> charge p.kind ns words)

let hooks =
  {
    Engine.on_spawn =
      (fun ~pid ~name ->
        close_slice None;
        st.spawns <- st.spawns + 1;
        let k = (Engine.current_partition () lsl 32) lor pid in
        Hashtbl.replace st.procs k { kind = kind_of_name name; stack = [] });
    on_park =
      (fun ~pid ->
        close_slice (Some ((Engine.current_partition () lsl 32) lor pid));
        st.parks <- st.parks + 1);
    on_wake = (fun ~pid:_ -> st.wakes <- st.wakes + 1);
  }

let start () =
  st.on <- true;
  st.window_start <- now_ns ();
  st.last_ns <- st.window_start;
  st.last_words <- Gc.minor_words ();
  Engine.set_trace_hooks (Some hooks)

(* Close the window: the last slice is the residual (it ends on no
   boundary of its own). *)
let stop () =
  if st.on then begin
    close_slice None;
    st.traced_ns <- st.traced_ns + (st.last_ns - st.window_start);
    st.on <- false;
    Hashtbl.reset st.procs;
    Engine.set_trace_hooks None
  end

let record_span name k (f : frame) =
  let s =
    match Hashtbl.find_opt st.spans name with
    | Some s -> s
    | None ->
        let s = { calls = 0; s_self_ns = 0; s_words = 0.; per_call = Quantiles.create () } in
        Hashtbl.replace st.spans name s;
        s
  in
  s.calls <- s.calls + 1;
  s.s_self_ns <- s.s_self_ns + f.f_self_ns;
  s.s_words <- s.s_words +. f.f_self_words;
  Quantiles.add s.per_call (float_of_int f.f_self_ns *. 1e-9);
  if st.nraw < raw_cap then begin
    st.raws <-
      { r_name = name; r_tid = k; r_start = f.f_start; r_dur = st.last_ns - f.f_start }
      :: st.raws;
    st.nraw <- st.nraw + 1
  end

let span name f =
  if not st.on then f ()
  else begin
    let k = key () in
    close_slice (Some k);
    let p = proc_of k in
    let fr = { f_name = name; f_start = st.last_ns; f_self_ns = 0; f_self_words = 0. } in
    p.stack <- fr :: p.stack;
    let finish () =
      if st.on then begin
        close_slice (Some k);
        (match p.stack with _ :: rest -> p.stack <- rest | [] -> ());
        record_span name k fr
      end
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

type report = {
  traced_s : float;  (** host seconds inside traced windows *)
  spawns : int;
  parks : int;
  wakes : int;
  buckets : (string * float * float) list;
      (** layer, self host seconds, self minor words; by name *)
  span_list : (string * int * float * float * float * float) list;
      (** span, calls, self s, self words, self p50 s, self p99 s *)
}

let report () =
  let sorted tbl f =
    List.sort compare (Hashtbl.fold (fun k v acc -> f k v :: acc) tbl [])
  in
  {
    traced_s = float_of_int st.traced_ns *. 1e-9;
    spawns = st.spawns;
    parks = st.parks;
    wakes = st.wakes;
    buckets =
      sorted st.buckets (fun k b -> (k, float_of_int b.b_ns *. 1e-9, b.b_words));
    span_list =
      sorted st.spans (fun k s ->
          ( k,
            s.calls,
            float_of_int s.s_self_ns *. 1e-9,
            s.s_words,
            Quantiles.quantile s.per_call 0.5,
            Quantiles.quantile s.per_call 0.99 ));
  }

(* The first [raw_cap] spans as Chrome trace_event JSON (complete
   events, microseconds from process start; one track per process). *)
let write_chrome path =
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[\n";
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "%s{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f}\n"
        (if i = 0 then "" else ",")
        r.r_name r.r_tid
        (float_of_int (r.r_start - st.origin) /. 1e3)
        (float_of_int r.r_dur /. 1e3))
    (List.rev st.raws);
  output_string oc "]}\n";
  close_out oc
