(* Deterministic fault injection. See fault.mli for the model.

   Everything here is a pure function of (seed, spec) and the sequence
   of fire calls the simulation makes: per-point RNG streams are
   derived from the seed and the point *name* (not registration order,
   not wall clock), and unconfigured points touch no state at all. *)

type schedule =
  | Prob of float (* Bernoulli per check *)
  | Every of int (* deterministic: every k-th check *)

let points =
  [
    ("xs.eagain", "forced XenStore transaction-commit conflict (EAGAIN)");
    ("xs.equota", "spurious XenStore quota failure on node creation (EQUOTA)");
    ("create.phase1", "create pipeline: domain creation hypercall fails");
    ("create.phase2", "create pipeline: memory reservation computation fails");
    ("create.phase3", "create pipeline: set_maxmem fails");
    ("create.phase4", "create pipeline: memory populate / XS skeleton fails");
    ("create.phase5", "create pipeline: device pre-creation fails");
    ("create.phase6", "create pipeline: config parse fails");
    ("create.phase7", "create pipeline: device init fails");
    ("create.phase8", "create pipeline: kernel image load fails");
    ("create.phase9", "create pipeline: boot/unpause fails");
    ("hotplug.hang", "hotplug script hangs until the toolstack timeout");
    ("evtchn.alloc", "event-channel allocation failure");
    ("gnttab.alloc", "grant-table allocation failure");
    ("migrate.corrupt", "migration stream corrupted in transfer");
  ]

let point_index =
  let h = Hashtbl.create 31 in
  List.iteri (fun i (name, _) -> Hashtbl.replace h name i) points;
  h

let index_of name = Hashtbl.find_opt point_index name
let is_point name = index_of name <> None

(* A resolved point is its registry index: sites resolve their names
   once, at module initialisation, and [fire] indexes the injector's
   stream array with it. *)
type point = int

let point name =
  match index_of name with
  | Some i -> i
  | None ->
      invalid_arg (Printf.sprintf "Fault.point: unregistered point %S" name)

(* Spec: configured points in registry order (canonical form). *)
type spec = (string * schedule) list

let empty_spec = []
let spec_is_empty s = s = []

let schedule_to_string = function
  | Prob p -> Printf.sprintf "%g" p
  | Every k -> Printf.sprintf "@%d" k

let spec_to_string s =
  String.concat ","
    (List.map (fun (n, sch) -> n ^ ":" ^ schedule_to_string sch) s)

let canonicalise entries =
  (* Later entries override earlier ones; output in registry order. *)
  let tbl = Hashtbl.create 31 in
  List.iter (fun (n, sch) -> Hashtbl.replace tbl n sch) entries;
  List.filter_map
    (fun (n, _) ->
      match Hashtbl.find_opt tbl n with
      | Some sch -> Some (n, sch)
      | None -> None)
    points

let parse_schedule ~entry s =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  if s = "" then fail "fault spec %S: empty schedule" entry
  else if s.[0] = '@' then
    match int_of_string_opt (String.sub s 1 (String.length s - 1)) with
    | Some k when k >= 1 -> Ok (Every k)
    | Some _ | None ->
        fail "fault spec %S: period must be an integer >= 1" entry
  else
    match float_of_string_opt s with
    | Some p when p >= 0.0 && p <= 1.0 -> Ok (Prob p)
    | Some _ -> fail "fault spec %S: probability must be in [0, 1]" entry
    | None -> fail "fault spec %S: bad schedule %S" entry s

let expand_name ~entry name =
  let n = String.length name in
  if n > 0 && name.[n - 1] = '*' then begin
    let prefix = String.sub name 0 (n - 1) in
    match
      List.filter_map
        (fun (p, _) ->
          if String.length p >= String.length prefix
             && String.sub p 0 (String.length prefix) = prefix
          then Some p
          else None)
        points
    with
    | [] ->
        Error
          (Printf.sprintf "fault spec %S: wildcard %S matches no fault point"
             entry name)
    | l -> Ok l
  end
  else if is_point name then Ok [ name ]
  else
    Error
      (Printf.sprintf
         "fault spec %S: unknown fault point %S (see `points` in fault.mli)"
         entry name)

let parse_spec s =
  let entries =
    String.split_on_char ',' s
    |> List.map String.trim
    |> List.filter (fun e -> e <> "")
  in
  let rec go acc = function
    | [] -> Ok (canonicalise (List.rev acc))
    | entry :: rest -> (
        let name, sched_src =
          match String.index_opt entry ':' with
          | Some i ->
              ( String.sub entry 0 i,
                String.sub entry (i + 1) (String.length entry - i - 1) )
          | None -> (entry, "1")
        in
        match expand_name ~entry name with
        | Error _ as e -> e
        | Ok names -> (
            match parse_schedule ~entry sched_src with
            | Error _ as e -> e
            | Ok sch -> go (List.rev_map (fun n -> (n, sch)) names @ acc) rest))
  in
  go [] entries

let scale s f =
  if f < 0.0 then invalid_arg "Fault.scale: negative factor";
  if f = 0.0 then empty_spec
  else
    List.map
      (fun (n, sch) ->
        match sch with
        | Prob p -> (n, Prob (Float.min 1.0 (p *. f)))
        | Every k ->
            (n, Every (Stdlib.max 1 (int_of_float (ceil (float_of_int k /. f))))))
      s

(* One configured point inside an injector. *)
type stream = {
  sched : schedule;
  rng : Rng.t;
  mutable checks : int;
  mutable injected : int;
}

type t = {
  spec : spec;
  streams : stream option array; (* by point index; [None] unconfigured *)
}

(* FNV-1a 64-bit over the point name: a stable, order-independent way
   to derive one seed per point from the injector seed. *)
let fnv1a name =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    name;
  !h

let create ?(seed = 0L) spec =
  let streams = Array.make (List.length points) None in
  List.iter
    (fun (name, sched) ->
      streams.(point name) <-
        Some
          {
            sched;
            rng = Rng.create (Int64.logxor seed (fnv1a name));
            checks = 0;
            injected = 0;
          })
    spec;
  { spec; streams }

(* The current injector is process-local, not domain-local: a
   simulation process carries it across suspensions and passes it to
   the processes it spawns. That is what keeps fault streams attached
   to the workload (a host's creation pipeline, a drain loop) rather
   than to whichever worker domain happens to execute it — the
   prerequisite for bit-identical partitioned runs at any [--jobs].
   Outside a simulation the same mechanism degrades to plain dynamic
   scoping, and Pool workers still start clean (fresh domains have
   empty process-local stacks). *)
type Engine.process_local += Injector of t

let with_injector t f = Engine.with_process_local (Injector t) f

let installed () =
  Engine.find_process_local (function Injector t -> Some t | _ -> None)

let active () =
  match installed () with
  | Some t -> not (spec_is_empty t.spec)
  | None -> false

let fire p =
  match installed () with
  | None -> false
  | Some t -> (
      match t.streams.(p) with
      | None -> false
      | Some s ->
          s.checks <- s.checks + 1;
          let hit =
            match s.sched with
            | Prob p -> Rng.bool s.rng p
            | Every k -> s.checks mod k = 0
          in
          if hit then s.injected <- s.injected + 1;
          hit)

let counts t =
  List.filter_map
    (fun (name, _) ->
      Option.map
        (fun s -> (name, (s.checks, s.injected)))
        t.streams.(point name))
    points

let injected_total t =
  Array.fold_left
    (fun acc -> function Some s -> acc + s.injected | None -> acc)
    0 t.streams
