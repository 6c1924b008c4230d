module Engine = Lightvm_sim.Engine

type attr = string * string

type span = {
  sp_name : string;
  sp_category : string;
  sp_start : float;
  sp_end : float;
  sp_self : float;
  sp_tid : int;
  sp_depth : int;
  sp_seq : int;
  sp_attrs : attr list;
}

let duration sp = sp.sp_end -. sp.sp_start

(* One open span per stack frame; [f_child] accumulates the wall time of
   completed children so [sp_self] can be computed without a second pass
   over the ring. *)
type frame = {
  f_name : string;
  f_category : string;
  f_start : float;
  f_tid : int;
  f_depth : int;
  mutable f_attrs : attr list;
  mutable f_child : float;
}

type handle =
  | Disabled
  | Open of frame

let default_capacity = 65536

type state = {
  mutable enabled : bool;
  mutable ring : span array;
  mutable capacity : int;
  mutable head : int; (* index of the oldest retained span *)
  mutable len : int;
  mutable seq : int; (* completed spans ever, = next sp_seq *)
  mutable evicted : int;
  counters : (string, int ref) Hashtbl.t;
  charged : (string, float ref) Hashtbl.t;
  stacks : (int, frame list ref) Hashtbl.t; (* tid -> open spans *)
}

let dummy_span =
  {
    sp_name = "";
    sp_category = "";
    sp_start = 0.;
    sp_end = 0.;
    sp_self = 0.;
    sp_tid = 0;
    sp_depth = 0;
    sp_seq = -1;
    sp_attrs = [];
  }

let state =
  {
    enabled = false;
    ring = [||];
    capacity = default_capacity;
    head = 0;
    len = 0;
    seq = 0;
    evicted = 0;
    counters = Hashtbl.create 64;
    charged = Hashtbl.create 16;
    stacks = Hashtbl.create 16;
  }

let enabled () = state.enabled

let now () = if Engine.running () then Engine.now () else 0.

let reset () =
  state.head <- 0;
  state.len <- 0;
  state.seq <- 0;
  state.evicted <- 0;
  Array.fill state.ring 0 (Array.length state.ring) dummy_span;
  Hashtbl.reset state.counters;
  Hashtbl.reset state.charged;
  Hashtbl.reset state.stacks

module Counter = struct
  let incr ?(by = 1) name =
    if state.enabled then
      match Hashtbl.find_opt state.counters name with
      | Some r -> r := !r + by
      | None -> Hashtbl.replace state.counters name (ref by)

  let value name =
    match Hashtbl.find_opt state.counters name with
    | Some r -> !r
    | None -> 0

  let all () =
    List.sort compare
      (Hashtbl.fold (fun k v acc -> (k, !v) :: acc) state.counters [])
end

(* Engine hooks: count process lifecycle events while tracing is on. *)
let hooks =
  {
    Engine.on_spawn =
      (fun ~pid:_ ~name:_ -> Counter.incr "sim.process_spawns");
    on_park = (fun ~pid:_ -> Counter.incr "sim.process_parks");
    on_wake = (fun ~pid:_ -> Counter.incr "sim.process_wakes");
  }

let enable ?capacity () =
  (match capacity with
  | Some c when c <= 0 -> invalid_arg "Trace.enable: capacity must be > 0"
  | Some c -> state.capacity <- c
  | None -> state.capacity <- default_capacity);
  if Array.length state.ring <> state.capacity then
    state.ring <- Array.make state.capacity dummy_span;
  state.enabled <- true;
  Engine.set_trace_hooks (Some hooks);
  reset ()

let disable () =
  state.enabled <- false;
  Engine.set_trace_hooks None

let record sp =
  if state.capacity = 0 then ()
  else if state.len < state.capacity then begin
    state.ring.((state.head + state.len) mod state.capacity) <- sp;
    state.len <- state.len + 1
  end
  else begin
    (* Full: overwrite the oldest so the ring keeps the newest spans. *)
    state.ring.(state.head) <- sp;
    state.head <- (state.head + 1) mod state.capacity;
    state.evicted <- state.evicted + 1
  end

let spans () =
  List.init state.len (fun i ->
      state.ring.((state.head + i) mod state.capacity))

let span_count () = state.seq

let evicted () = state.evicted

let stack_for tid =
  match Hashtbl.find_opt state.stacks tid with
  | Some r -> r
  | None ->
      let r = ref [] in
      Hashtbl.replace state.stacks tid r;
      r

module Span = struct
  type t = handle

  let none = Disabled

  let begin_ ?(attrs = []) ~category name =
    if not state.enabled then Disabled
    else begin
      let tid = Engine.self_pid () in
      let stack = stack_for tid in
      let frame =
        {
          f_name = name;
          f_category = category;
          f_start = now ();
          f_tid = tid;
          f_depth = List.length !stack;
          f_attrs = attrs;
          f_child = 0.;
        }
      in
      stack := frame :: !stack;
      Open frame
    end

  let add_attr h key value =
    match h with
    | Disabled -> ()
    | Open f -> f.f_attrs <- (key, value) :: f.f_attrs

  let finish f =
    let t_end = now () in
    let dur = t_end -. f.f_start in
    let stack = stack_for f.f_tid in
    (* Pop up to and including this frame; tolerates ends arriving out
       of order (a parent ended before a child, e.g. across processes)
       by discarding the orphans above it. *)
    let rec pop = function
      | [] -> []
      | g :: rest -> if g == f then rest else pop rest
    in
    stack := pop !stack;
    (match !stack with
    | parent :: _ -> parent.f_child <- parent.f_child +. dur
    | [] -> ());
    let sp =
      {
        sp_name = f.f_name;
        sp_category = f.f_category;
        sp_start = f.f_start;
        sp_end = t_end;
        sp_self = dur -. f.f_child;
        sp_tid = f.f_tid;
        sp_depth = f.f_depth;
        sp_seq = state.seq;
        sp_attrs = List.rev f.f_attrs;
      }
    in
    state.seq <- state.seq + 1;
    record sp;
    sp

  let end_ h = match h with Disabled -> () | Open f -> ignore (finish f)

  let with_ ?attrs ~category name f =
    let h = begin_ ?attrs ~category name in
    match f () with
    | r ->
        end_ h;
        r
    | exception e ->
        end_ h;
        raise e
end

let charge ~category dt =
  if state.enabled && dt > 0. then begin
    (match Hashtbl.find_opt state.charged category with
    | Some r -> r := !r +. dt
    | None -> Hashtbl.replace state.charged category (ref dt))
  end;
  Engine.sleep dt

let charged () =
  List.sort compare
    (Hashtbl.fold (fun k v acc -> (k, !v) :: acc) state.charged [])
