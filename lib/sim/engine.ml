type out_msg = {
  out_time : float;
  out_src : int; (* source partition index *)
  out_seq : int; (* per-source posting order *)
  out_target : int;
  out_thunk : unit -> unit;
}

type eng = {
  mutable clock : float;
  heap : (unit -> unit) Heap.t;
  mutable stopped : bool;
  mutable wend : float; (* end of the window the partition is running *)
  mutable vwend : float;
      (* end of the current *virtual* fixed-lookahead round. In a
         classic window this equals [wend]; in an adaptively grown
         window it tracks where each fixed-window round boundary would
         have fallen, so cross-partition sends are batched exactly as
         the fixed-window protocol would batch them (see
         [run_partitioned]) *)
  mutable limit : float;
      (* earliest foreign event of an adaptively grown window: the
         bound [next_round] admits new virtual rounds against;
         [neg_infinity] in a classic window *)
  mutable next_pid : int;
      (* per-engine so pid allocation is independent of how partitions
         interleave across worker domains *)
  mutable out_seq : int;
  mutable outbox : out_msg list; (* reversed; merged at the barrier *)
}

(* A token is the timer's heap entry. Only the partition that armed a
   timer cancels it, on its own heap; a run drains its heaps as it ends
   (see [finish]), so a token a model keeps past its run is inert. *)
type token = (unit -> unit) Heap.entry

(* Process identity, for tracers: every [exec]'d process (the initial
   [main] and every [spawn]) gets a small integer id; callbacks run as
   pid 0 ("engine"). The hooks fire on process lifecycle transitions so
   an external tracer can count spawns/parks/wakes without the engine
   depending on it. *)
type trace_hooks = {
  on_spawn : pid:int -> name:string -> unit;
  on_park : pid:int -> unit;
  on_wake : pid:int -> unit;
}

(* A run: one engine per partition (index 0 is the dom0/global
   partition, 1..n the declared partitions), coupled only through
   [post]ed cross-partition messages. A single-heap run is partition 0
   alone with an infinite lookahead. *)
type pctx = {
  engs : eng array;
  lookahead : float;
  some_engs : eng option array;
  some_self : pctx option;
      (* [Some engs.(i)] and [Some ctx], built once: a window switch
         stores these in [dls] instead of allocating new options *)
}

(* Values a process can carry across suspensions (see
   [with_process_local]): an open extensible variant so clients (the
   fault injector) add their own cases without the engine knowing. *)
type process_local = ..

(* All engine bookkeeping is domain-local: a domain drives (at most)
   one engine at a time, and engines on different domains never share
   state, which is what lets Pool run independent experiments in
   parallel with bit-identical results. A run moves a partition's
   engine from domain to domain between windows, so nothing below may
   close over the [dls] record itself — closures that outlive the
   current event (continuations, resume functions, spawned thunks) and
   the shared process handler always re-read [dls ()] at execution
   time. *)
type dls = {
  mutable current : eng option; (* the engine of the window running *)
  mutable pctx : pctx option; (* and its run; both set or both unset *)
  mutable cur_idx : int; (* partition index the domain is executing *)
  mutable current_pid : int;
  mutable current_pname : string;
  mutable plocals : process_local list;
  mutable hooks : trace_hooks option;
}

let dls_key =
  Domain.DLS.new_key (fun () ->
      {
        current = None;
        pctx = None;
        cur_idx = 0;
        current_pid = 0;
        current_pname = "engine";
        plocals = [];
        hooks = None;
      })

let dls () = Domain.DLS.get dls_key

let set_trace_hooks h = (dls ()).hooks <- h

let self_pid () = (dls ()).current_pid

let not_running () = invalid_arg "Sim.Engine: no simulation is running"

let current_eng st =
  match st.current with Some e -> e | None -> not_running ()

let running () = (dls ()).current <> None

let now () = (current_eng (dls ())).clock

let current_partition () = (dls ()).cur_idx

let partition_count () =
  match (dls ()).pctx with
  | None -> 0
  | Some ctx -> Array.length ctx.engs - 1

(* Every guard below is written so that NaN fails it: a NaN time would
   sort nowhere in the heap and end the run early. *)
let schedule_at eng time thunk =
  if not (time >= eng.clock) then
    invalid_arg
      (Printf.sprintf "Sim.Engine: scheduling in the past or at NaN (%g < %g)"
         time eng.clock);
  Heap.push eng.heap ~time thunk

let after delay thunk =
  let eng = current_eng (dls ()) in
  if not (delay >= 0.) then
    invalid_arg "Sim.Engine.after: negative or NaN delay";
  schedule_at eng (eng.clock +. delay) thunk

let cancel entry = Heap.cancel (current_eng (dls ())).heap entry

let no_token =
  let h = Heap.create ignore in
  let entry = Heap.push h ~time:0. ignore in
  Heap.drain h;
  entry

type _ Effect.t +=
  | Suspend : (('a -> unit) -> unit) -> 'a Effect.t
  | Sleep_until : float -> unit Effect.t

let suspend register = Effect.perform (Suspend register)

(* Run [f a b] with the process identity (and its process-local values)
   set to [pid]/[name]/[plocals]; restores the caller's identity on
   return (also on exception), so identity always reflects whichever
   process the scheduler is actually executing. [f a b] runs to its next
   park on this domain, so one [dls ()] serves both sides. *)
let set_identity st pid name plocals =
  st.current_pid <- pid;
  st.current_pname <- name;
  st.plocals <- plocals

let as_process pid name plocals f a b =
  let st = dls () in
  let saved_pid = st.current_pid
  and saved_name = st.current_pname
  and saved_plocals = st.plocals in
  set_identity st pid name plocals;
  match f a b with
  | () -> set_identity st saved_pid saved_name saved_plocals
  | exception e ->
      set_identity st saved_pid saved_name saved_plocals;
      raise e

let with_process_local local f =
  let st = dls () in
  let saved = st.plocals in
  st.plocals <- local :: saved;
  Fun.protect ~finally:(fun () -> (dls ()).plocals <- saved) f

let find_process_local sel =
  let rec go = function
    | [] -> None
    | l :: rest -> ( match sel l with Some _ as r -> r | None -> go rest)
  in
  go (dls ()).plocals

(* A blocked process is one record: its continuation plus the identity
   and home partition it resumes with. The resume function handed to
   [register] is [wake] partially applied to it. *)
type 'a park = {
  pk_k : ('a, unit) Effect.Deep.continuation;
  pk_pid : int;
  pk_name : string;
  pk_plocals : process_local list;
  pk_home : eng;
  mutable pk_fired : bool;
}

let wake r v =
  if r.pk_fired then invalid_arg "Sim.Engine: one-shot resume called twice";
  r.pk_fired <- true;
  let home = r.pk_home in
  let st = dls () in
  (match st.current with
  | Some cur when cur == home -> ()
  | _ ->
      invalid_arg
        "Sim.Engine: cross-partition resume — wake a process from its \
         own partition (via [post]) instead");
  (match st.hooks with Some h -> h.on_wake ~pid:r.pk_pid | None -> ());
  ignore
    (schedule_at home home.clock (fun () ->
         as_process r.pk_pid r.pk_name r.pk_plocals Effect.Deep.continue
           r.pk_k v))

(* The park itself runs in the handler, still as the parking process:
   its identity, locals and partition are read off [dls]. *)
let park_record k =
  let st = dls () in
  let pid = st.current_pid in
  (match st.hooks with Some h -> h.on_park ~pid | None -> ());
  {
    pk_k = k;
    pk_pid = pid;
    pk_name = st.current_pname;
    pk_plocals = st.plocals;
    pk_home = current_eng st;
    pk_fired = false;
  }

let park k register = register (wake (park_record k))

(* A parked sleep's timer. The wake entry [wake] would push at the
   timer's own time is the next pop when no live entry is due at or
   before it — [advance_in_place]'s rule, at a clock the window has
   already admitted — so with no hooks to call the timer resumes the
   process itself: the same continuation at the same time, without
   the entry. The sleep's resume escapes to nothing else, so nothing
   can fire it twice. *)
let fire_sleep r =
  let home = r.pk_home in
  if
    (match (dls ()).hooks with None -> true | Some _ -> false)
    && (Heap.is_empty home.heap || Heap.next_time home.heap > home.clock)
  then as_process r.pk_pid r.pk_name r.pk_plocals Effect.Deep.continue r.pk_k ()
  else wake r ()

let park_sleep k time =
  let r = park_record k in
  ignore (schedule_at r.pk_home time (fun () -> fire_sleep r))

(* Every process (the initial [main] and every [spawn]) runs under this
   one static deep handler; it knows which process it serves only
   through the identity [as_process] put in [dls]. *)
let handler =
  {
    Effect.Deep.retc = (fun () -> ());
    exnc =
      (fun e ->
        (match e with
        | Stack_overflow | Out_of_memory -> ()
        | _ ->
            Printf.eprintf "Sim process %S raised: %s\n%!"
              (dls ()).current_pname (Printexc.to_string e));
        raise e);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Suspend register ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) -> park k register)
        | Sleep_until time ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) -> park_sleep k time)
        | _ -> None);
  }

let run_body f handler = Effect.Deep.match_with f () handler

let exec plocals name f =
  let eng = current_eng (dls ()) in
  let pid = eng.next_pid in
  eng.next_pid <- pid + 1;
  (match (dls ()).hooks with Some h -> h.on_spawn ~pid ~name | None -> ());
  as_process pid name plocals run_body f handler

let spawn ?(name = "anonymous") f =
  let eng = current_eng (dls ()) in
  let pl = (dls ()).plocals in
  ignore (schedule_at eng eng.clock (fun () -> exec pl name f))

(* Cross-partition scheduling. Within a partition this is just
   [after]; a partition the run does not have is an error, in a
   single-heap run too. Across partitions the thunk goes to the source
   engine's outbox and is merged into the target's heap at the end of
   the window, so the delay must cover the lookahead — otherwise the
   target may already have advanced past the arrival time. Merging
   sorts by (time, source partition, per-source posting order), making
   cross-partition delivery order a pure function of the workload,
   independent of [--jobs]. *)
let post ~partition ~delay thunk =
  if not (delay >= 0.) then
    invalid_arg "Sim.Engine.post: negative or NaN delay";
  let st = dls () in
  let ctx = match st.pctx with Some ctx -> ctx | None -> not_running () in
  if partition < 0 || partition >= Array.length ctx.engs then
    invalid_arg
      (Printf.sprintf "Sim.Engine.post: unknown partition %d" partition);
  if partition = st.cur_idx then ignore (after delay thunk)
  else begin
    if delay < ctx.lookahead then
      invalid_arg
        (Printf.sprintf
           "Sim.Engine.post: cross-partition delay %g below the lookahead \
            %g"
           delay ctx.lookahead);
    let eng = current_eng st in
    eng.outbox <-
      {
        out_time = eng.clock +. delay;
        out_src = st.cur_idx;
        out_seq = eng.out_seq;
        out_target = partition;
        out_thunk = thunk;
      }
      :: eng.outbox;
    eng.out_seq <- eng.out_seq + 1;
    (* An adaptively grown window must close at the end of the virtual
       round that produced the first send, so the message is merged in
       exactly the batch the fixed-window protocol would merge it in. In
       a classic window [vwend = wend] and this clamp is a no-op. *)
    eng.wend <- Float.min eng.wend eng.vwend
  end

let spawn_in ?(name = "anonymous") ~partition ~delay f =
  post ~partition ~delay (fun () -> exec [] name f)

(* A virtual round of an adaptively grown window (see
   [run_partitioned]). [window_loop] admits an event at [t] past the
   current round end [vwend] only when the fixed-window protocol would
   have opened a single-active round at [t] next: no send is waiting
   for the barrier (a send pins the merge batch to its virtual round)
   and the round [t, t + lookahead) stays clear of the earliest foreign
   event [eng.limit]. Admitting it opens that round: [vwend] moves to
   [t + lookahead]. In a classic window [limit = neg_infinity] and
   nothing is admitted past [vwend]. *)
let next_round ctx eng t =
  match eng.outbox with
  | _ :: _ -> false (* batch closed by a send *)
  | [] ->
      t +. ctx.lookahead <= eng.limit
      && begin
           eng.vwend <- t +. ctx.lookahead;
           true
         end

(* Inlined so that callers' float arguments stay unboxed: [sleep]'s
   wake time is otherwise boxed on every in-place advance. *)
let[@inline] admits ctx eng t =
  t < eng.wend && (t < eng.vwend || next_round ctx eng t)

(* Sleeping is the single hottest engine operation (every simulated
   cost charge is a sleep), and a CPU burst on an idle core is a sleep
   of known length too ([Cpu.consume]), so both first try to advance
   the clock in place instead of parking through the heap. The common
   case qualifies: nothing else is scheduled to run before the wake.
   This is observably equivalent: the suspend path would push a wake
   entry whose (time, seq) key beats every later push, so when no
   existing entry has time <= wake the pop order is exactly "resume
   this task next". The fast path is skipped when process-lifecycle
   hooks are installed (tracers count park/wake transitions), after
   [stop] (a parked task must never resume), and when the window would
   not pop the wake entry next ([admits]). A single-heap run's window
   admits every finite wake. In a classic window that is any wake at or
   past its end: the entry must stay in the heap so the next window's
   start time accounts for it. In an adaptively grown window a wake
   past the current virtual round is admitted exactly when the window
   would admit the wake entry, and it opens the same next round: the
   adaptive schedule rebuilds every fixed-window round boundary from
   the events it pops, and the in-place wake is the event the round at
   [wake] would have popped first. *)
let advance_in_place st eng delay =
  let wake = eng.clock +. delay in
  (match st.hooks with None -> true | Some _ -> false)
  && (not eng.stopped)
  && (Heap.is_empty eng.heap || Heap.next_time eng.heap > wake)
  && (match st.pctx with Some ctx -> admits ctx eng wake | None -> false)
  && begin
       eng.clock <- wake;
       true
     end

let try_sleep delay =
  if not (delay >= 0.) then
    invalid_arg "Sim.Engine.try_sleep: negative or NaN delay";
  let st = dls () in
  advance_in_place st (current_eng st) delay

(* On the slow path the process parks behind a timer that resumes it
   ([fire_sleep]). *)
let sleep delay =
  if not (delay >= 0.) then
    invalid_arg "Sim.Engine.sleep: negative or NaN delay"
  else if delay = 0. then ()
  else begin
    let st = dls () in
    let eng = current_eng st in
    if not (advance_in_place st eng delay) then
      Effect.perform (Sleep_until (eng.clock +. delay))
  end

let yield_register resume =
  let eng = current_eng (dls ()) in
  ignore (schedule_at eng eng.clock resume)

let yield () = suspend yield_register

let stop () = (current_eng (dls ())).stopped <- true

(* ------------------------------------------------------------------ *)
(* Checkpointable engine state. A quiesced engine is fully described by
   its clock, its pid/outbox counters and the live heap entries in pop
   order: re-pushing those entries into a fresh heap (fresh sequence
   numbers, same relative order) reproduces the exact pop order, and a
   suffix scheduled *first* at the restored clock runs before any
   same-time image entry — exactly as the unbroken run's prefix process
   continues inline into the suffix. The thunks are ordinary closures;
   [Checkpoint] marshals them (together with whatever model state they
   reach) to freeze a run to bytes. A simulation with parked effect
   continuations in its heap cannot be marshalled — that is the
   quiesce-point condition [Checkpoint] reports as [Not_quiesced]. *)

type saved_eng = {
  sv_clock : float;
  sv_next_pid : int;
  sv_out_seq : int;
  sv_events : (float * (unit -> unit)) array; (* live entries, pop order *)
}

type saved = {
  sv_lookahead : float;
      (* the conservative-sync lookahead; [infinity] for a single-heap
         run *)
  sv_engs : saved_eng array; (* one per partition, partition 0 first *)
}

let harvest eng =
  {
    sv_clock = eng.clock;
    sv_next_pid = eng.next_pid;
    sv_out_seq = eng.out_seq;
    sv_events = Heap.entries eng.heap;
  }

(* The window bounds are set by each window that runs the engine. *)
let restore_eng sv =
  {
    clock = sv.sv_clock;
    heap = Heap.create ignore;
    stopped = false;
    wend = infinity;
    vwend = infinity;
    limit = neg_infinity;
    next_pid = sv.sv_next_pid;
    out_seq = sv.sv_out_seq;
    outbox = [];
  }

(* A fresh engine is the restore of an empty image. *)
let blank =
  { sv_clock = 0.; sv_next_pid = 1; sv_out_seq = 0; sv_events = [||] }

(* Restore [sv] into [eng]'s heap. Callers schedule the main process
   *before* re-pushing: at the restored clock it then wins every
   same-time tie — matching the unbroken run, where the prefix process
   continues inline into the suffix while those entries wait in the
   heap. *)
let repush eng sv =
  Array.iter
    (fun (time, thunk) -> ignore (Heap.push eng.heap ~time thunk))
    sv.sv_events

(* ------------------------------------------------------------------ *)
(* Runs: conservative-synchronization parallel DES.

   Each round, the coordinator takes T = the earliest pending event
   across all partitions and opens the window [T, T + lookahead): every
   partition with an event in the window executes exactly those events
   (in its own (time, seq) order), possibly on different worker
   domains. Cross-partition messages carry at least [lookahead] of
   modeled delay ([post] enforces it), so anything produced inside the
   window arrives at or after its end — no partition can ever receive
   an event in its past, and no rollback is needed. At the barrier the
   collected messages are merged into the target heaps in (time, source
   partition, per-source order), which the heap's (time, seq) tiebreak
   then preserves: the merged schedule, and hence the whole run, is
   bit-identical whatever the worker count.

   A single-heap run is the degenerate case: partition 0 alone with
   [lookahead = infinity]. Its first window [T, infinity) lasts until
   the heap drains or [stop] is called, so it runs every event in one
   window with no barrier. The round loop ends a run once the earliest
   pending event is at [infinity]. *)

(* Run partition [idx] for one window: every event before [eng.wend]
   that the current virtual round admits. A classic window has
   [eng.wend = eng.vwend =] its end and [eng.limit = neg_infinity]. An
   adaptively grown window (see [drive_rounds]) starts with
   [eng.wend = infinity], [eng.vwend] the end of the *first* virtual
   fixed-lookahead round, and [eng.limit] the earliest foreign event:
   it keeps absorbing later virtual rounds ([next_round]) for as long
   as the outbox is empty and the next virtual round would still be
   single-active. Every event executed this way runs in exactly the
   virtual round the fixed-window protocol would have run it in, so the
   grown window is bit-identical to the sequence of fixed windows it
   replaces. Nothing here allocates: the loop is a top-level function
   and the [Some] values put in [dls] are the ones [ctx] was built
   with. *)
let rec window_loop ctx eng =
  if eng.stopped || Heap.is_empty eng.heap then ()
  else begin
    let t = Heap.next_time eng.heap in
    if admits ctx eng t then begin
      let thunk = Heap.pop_payload eng.heap in
      eng.clock <- t;
      thunk ();
      window_loop ctx eng
    end
  end

let close_window st =
  st.current <- None;
  st.pctx <- None;
  st.cur_idx <- 0

let run_window ctx idx ~wend ~vwend ~limit =
  let st = dls () in
  (match st.current with
  | Some _ ->
      invalid_arg "Sim.Engine: a simulation is already running on this domain"
  | None -> ());
  let eng = ctx.engs.(idx) in
  st.current <- ctx.some_engs.(idx);
  st.pctx <- ctx.some_self;
  st.cur_idx <- idx;
  eng.wend <- wend;
  eng.vwend <- vwend;
  eng.limit <- limit;
  match window_loop ctx eng with
  | () -> close_window st
  | exception e ->
      close_window st;
      raise e

(* The round loop of every run, fresh or resumed: open a
   window at the earliest pending event, run every partition with work
   in it (possibly on worker domains), then deterministically merge the
   outboxes. With [adaptive] (the default), a round whose base window
   [T, T + lookahead) contains events of only one partition — the
   observed cross-partition traffic is sparse there — runs as one grown
   window: the single active partition absorbs consecutive
   single-active virtual rounds in one window instead of paying a
   barrier per lookahead. The growth rules above make the executed
   schedule — and hence every digest — bit-identical to fixed windows;
   rounds where two or more partitions have work (dense traffic) shrink
   back to the classic window. On the single-worker path a round
   allocates nothing: the scans are loops over local refs and the
   active set is a bool array reused across rounds. *)
let drive_rounds ?jobs ~adaptive ctx =
  let jobs = match jobs with Some j -> max 1 j | None -> 1 in
  let n = Array.length ctx.engs in
  let pool =
    if jobs > 1 && n > 1 then Some (Pool.create ~workers:(min jobs n))
    else None
  in
  Fun.protect
    ~finally:(fun () -> Option.iter Pool.shutdown pool)
    (fun () ->
      (* Messages carry their source partition and per-source posting
         order; the sort key (time, src, seq) reads the record fields
         directly, no key tuples. The batch is gathered into a scratch
         array reused across barriers — a barrier with no messages (the
         overwhelmingly common round) allocates nothing. *)
      let compare_msg a b =
        match Float.compare a.out_time b.out_time with
        | 0 -> (
            match Int.compare a.out_src b.out_src with
            | 0 -> Int.compare a.out_seq b.out_seq
            | c -> c)
        | c -> c
      in
      let dummy_msg =
        { out_time = 0.; out_src = 0; out_seq = 0; out_target = 0;
          out_thunk = ignore }
      in
      let scratch = ref [||] in
      let merge_outboxes () =
        let total =
          Array.fold_left
            (fun acc e -> acc + List.length e.outbox)
            0 ctx.engs
        in
        if total > 0 then begin
          if Array.length !scratch < total then
            scratch :=
              Array.make (max total (2 * Array.length !scratch)) dummy_msg;
          let buf = !scratch in
          let k = ref 0 in
          Array.iter
            (fun e ->
              List.iter
                (fun m ->
                  buf.(!k) <- m;
                  incr k)
                e.outbox;
              e.outbox <- [])
            ctx.engs;
          (* Sort just the filled prefix. Insertion sort is
             allocation-free and fast at typical batch sizes; large
             bursts (mass migrations) pay one temporary array. The key
             is a total order (src/seq unique), so both sorts agree. *)
          if total <= 32 then
            for i = 1 to total - 1 do
              let m = buf.(i) in
              let j = ref (i - 1) in
              while !j >= 0 && compare_msg buf.(!j) m > 0 do
                buf.(!j + 1) <- buf.(!j);
                decr j
              done;
              buf.(!j + 1) <- m
            done
          else begin
            let tmp = Array.sub buf 0 total in
            Array.sort compare_msg tmp;
            Array.blit tmp 0 buf 0 total
          end;
          for i = 0 to total - 1 do
            let m = buf.(i) in
            ignore
              (schedule_at ctx.engs.(m.out_target) m.out_time m.out_thunk);
            buf.(i) <- dummy_msg
          done
        end
      in
      let active = Array.make n false in
      let rec round () =
        if Array.exists (fun e -> e.stopped) ctx.engs then ()
        else begin
          let next = ref infinity and imin = ref 0 in
          for i = 0 to n - 1 do
            let h = ctx.engs.(i).heap in
            if not (Heap.is_empty h) then begin
              let t = Heap.next_time h in
              if t < !next then begin
                next := t;
                imin := i
              end
            end
          done;
          if !next = infinity then ()
          else begin
            let wend = !next +. ctx.lookahead in
            (* Earliest event outside the leading partition: the base
               window is single-active iff it stays clear of it. *)
            let min2 = ref infinity in
            for i = 0 to n - 1 do
              let h = ctx.engs.(i).heap in
              if i <> !imin && not (Heap.is_empty h) then begin
                let t = Heap.next_time h in
                if t < !min2 then min2 := t
              end
            done;
            if adaptive && !min2 >= wend then
              (* One partition, one window: no worker handoff. *)
              run_window ctx !imin ~wend:infinity ~vwend:wend ~limit:!min2
            else begin
              for idx = 0 to n - 1 do
                let h = ctx.engs.(idx).heap in
                active.(idx) <-
                  (not (Heap.is_empty h)) && Heap.next_time h < wend
              done;
              match pool with
              | None ->
                  for idx = 0 to n - 1 do
                    if active.(idx) then
                      run_window ctx idx ~wend ~vwend:wend ~limit:neg_infinity
                  done
              | Some p ->
                  List.init n Fun.id
                  |> List.filter (fun idx -> active.(idx))
                  |> List.map (fun idx ->
                         Pool.submit p (fun () ->
                             run_window ctx idx ~wend ~vwend:wend
                               ~limit:neg_infinity))
                  |> List.iter (fun pr ->
                         match Pool.await pr with
                         | Ok () -> ()
                         | Error (e, bt) ->
                             Printexc.raise_with_backtrace e bt)
            end;
            (* Barrier: deterministically merge the windows' outboxes. *)
            merge_outboxes ();
            round ()
          end
        end
      in
      round ())

let check_partitioned_args ~lookahead =
  if not (lookahead > 0.) then
    invalid_arg "Sim.Engine.run_partitioned: lookahead must be positive";
  match (dls ()).current with
  | Some _ -> invalid_arg "Sim.Engine.run: a simulation is already running"
  | None -> ()

let max_clock ctx =
  Array.fold_left (fun acc e -> Float.max acc e.clock) 0. ctx.engs

(* The events a run leaves behind die with it. Draining its heaps marks
   them popped, so a token the model still holds (a core's completion
   timer) is as inert in any later run as the token of a fired timer. A
   capture harvests the heaps first. *)
let finish ctx = Array.iter (fun e -> Heap.drain e.heap) ctx.engs

(* Every run starts here, fresh (every partition [blank]) or resumed:
   the main process is pushed into partition 0 before that partition's
   image events. *)
let run_ctx ?jobs ~adaptive ~lookahead svs main =
  check_partitioned_args ~lookahead;
  let engs = Array.map restore_eng svs in
  let some_engs = Array.map Option.some engs in
  let rec ctx = { engs; lookahead; some_engs; some_self = Some ctx } in
  let e0 = ctx.engs.(0) in
  ignore (Heap.push e0.heap ~time:e0.clock (fun () -> exec [] "main" main));
  Array.iteri (fun i sv -> repush ctx.engs.(i) sv) svs;
  (match drive_rounds ?jobs ~adaptive ctx with
  | () -> ()
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      finish ctx;
      Printexc.raise_with_backtrace e bt);
  ctx

let run_partitioned_ctx ?jobs ~adaptive ~lookahead ~partitions main =
  if partitions < 0 then
    invalid_arg "Sim.Engine.run_partitioned: negative partition count";
  run_ctx ?jobs ~adaptive ~lookahead (Array.make (partitions + 1) blank) main

let capture_ctx ctx =
  let saved =
    { sv_lookahead = ctx.lookahead; sv_engs = Array.map harvest ctx.engs }
  in
  finish ctx;
  (max_clock ctx, saved)

let clock_ctx ctx =
  finish ctx;
  max_clock ctx

let run_partitioned ?jobs ?(adaptive = true) ~lookahead ~partitions main =
  clock_ctx (run_partitioned_ctx ?jobs ~adaptive ~lookahead ~partitions main)

let run_partitioned_capture ?jobs ?(adaptive = true) ~lookahead ~partitions
    main =
  capture_ctx (run_partitioned_ctx ?jobs ~adaptive ~lookahead ~partitions main)

let run main = run_partitioned ~lookahead:infinity ~partitions:0 main

let run_capture main =
  run_partitioned_capture ~lookahead:infinity ~partitions:0 main

let resume ?jobs ?(adaptive = true) sv main =
  clock_ctx
    (run_ctx ?jobs ~adaptive ~lookahead:sv.sv_lookahead sv.sv_engs main)

let resume_capture ?jobs ?(adaptive = true) sv main =
  capture_ctx
    (run_ctx ?jobs ~adaptive ~lookahead:sv.sv_lookahead sv.sv_engs main)

module Ivar = struct
  type 'a state =
    | Empty of ('a -> unit) list
    | Full of 'a

  type 'a t = { mutable state : 'a state }

  let create () = { state = Empty [] }

  let fill t v =
    match t.state with
    | Full _ -> invalid_arg "Sim.Engine.Ivar.fill: already filled"
    | Empty waiters ->
        t.state <- Full v;
        (* Wake in arrival order for determinism. *)
        List.iter (fun resume -> resume v) (List.rev waiters)

  let read t =
    match t.state with
    | Full v -> v
    | Empty _ ->
        suspend (fun resume ->
            match t.state with
            | Full v -> resume v
            | Empty waiters -> t.state <- Empty (resume :: waiters))

  let is_full t = match t.state with Full _ -> true | Empty _ -> false
end
