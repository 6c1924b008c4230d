module Engine = Lightvm_sim.Engine
module Fault = Lightvm_sim.Fault
module Resource = Lightvm_sim.Resource
module Trace = Lightvm_trace.Trace

type request =
  | Read of Xs_path.t
  | Write of Xs_path.t * string
  | Mkdir of Xs_path.t
  | Rm of Xs_path.t
  | Directory of Xs_path.t
  | Get_perms of Xs_path.t
  | Set_perms of Xs_path.t * Xs_perms.t
  | Watch of Xs_path.t * string
  | Unwatch of Xs_path.t * string
  | Transaction_start
  | Transaction_end of bool
  | Get_domain_path of int
  | Introduce of int
  | Release of int

type response =
  | Ok_unit
  | Ok_value of string
  | Ok_list of string list
  | Ok_perms of Xs_perms.t
  | Ok_txid of int
  | Ok_path of string
  | Err of Xs_error.t

type counters = {
  mutable ops : int;
  mutable watch_events : int;
  mutable tx_commits : int;
  mutable tx_conflicts : int;
  mutable uniqueness_cmps : int;
  mutable busy_time : float;
}

(* Host-side index of /local/domain: child id -> its [name] node's
   (value, perms), or [None] when the domain directory has no name
   node. Map over strings so iteration order is the store's sorted
   directory order. See the "name index" comment below for the
   invariants. *)
module NMap = Map.Make (String)

type t = {
  profile : Xs_costs.profile;
  store : Xs_store.t;
  watches : Xs_watch.t;
  log : Xs_logging.t;
  mutex : Resource.t;
  txs : (int, int * Xs_transaction.t) Hashtbl.t; (* txid -> caller, tx *)
  mutable next_txid : int;
  quota_nodes : int;
  counters : counters;
  mutable name_idx : (string * Xs_perms.t) option NMap.t;
  mutable name_idx_gen : int; (* store generation it mirrors; -1 = stale *)
}

let create ?(profile = Xs_costs.oxenstored) ?(quota_nodes = 1000) () =
  {
    profile;
    store = Xs_store.create ();
    watches = Xs_watch.create ();
    log =
      Xs_logging.create ~enabled:profile.Xs_costs.logging_enabled ();
    mutex = Resource.create 1;
    txs = Hashtbl.create 16;
    next_txid = 1;
    quota_nodes;
    counters =
      {
        ops = 0;
        watch_events = 0;
        tx_commits = 0;
        tx_conflicts = 0;
        uniqueness_cmps = 0;
        busy_time = 0.;
      };
    name_idx = NMap.empty;
    name_idx_gen = -1;
  }

let profile t = t.profile
let store t = t.store
let counters t = t.counters
let watch_count t = Xs_watch.count t.watches

let charge ?(category = "xs") t cost =
  t.counters.busy_time <- t.counters.busy_time +. cost;
  Trace.charge ~category cost

let request_payload_bytes = function
  | Read p | Mkdir p | Rm p | Directory p | Get_perms p ->
      String.length (Xs_path.to_string p) + 1
  | Write (p, v) -> String.length (Xs_path.to_string p) + String.length v + 2
  | Set_perms (p, perms) ->
      String.length (Xs_path.to_string p)
      + String.length (Xs_perms.to_string perms)
      + 2
  | Watch (p, tok) | Unwatch (p, tok) ->
      String.length (Xs_path.to_string p) + String.length tok + 2
  | Transaction_start -> 1
  | Transaction_end _ -> 2
  | Get_domain_path _ | Introduce _ | Release _ -> 8

(* The access log records one line per request and one per reply. *)
let charge_logging t =
  let p = t.profile in
  let rotated = Xs_logging.log_access t.log ~lines:p.Xs_costs.log_lines_per_op in
  let cost =
    float_of_int p.Xs_costs.log_lines_per_op *. p.Xs_costs.log_line
  in
  let cost =
    if rotated then
      cost
      +. (float_of_int Xs_logging.files
          *. p.Xs_costs.log_rotate_per_file)
    else cost
  in
  charge ~category:"xs.logging" t cost

(* Constant paths, parsed once — these sit on the per-request and
   per-creation hot paths. *)
let domain_dir = Xs_path.of_string "/local/domain"
let introduce_path = Xs_path.of_string "@introduceDomain"
let release_path = Xs_path.of_string "@releaseDomain"

(* Writing a guest's name triggers the daemon's uniqueness check: scan
   every running guest and compare names (paper Section 4.2). *)
let is_name_write path =
  match Xs_path.segments path with
  | [ "local"; "domain"; _; "name" ] -> true
  | _ -> false

(* --- name index --------------------------------------------------- *)
(* The modeled daemon scans /local/domain on every name write, and
   libxl's name resolution re-reads every guest's name several times
   per creation — together Θ(N) store walks per guest, Θ(N²) for a
   boot storm, which came to dominate the host wall clock of the scale
   experiments. The index caches, per /local/domain child, the (value,
   perms) of its [name] node so those scans read a sorted map instead
   of walking the tree once per guest.

   INVARIANT (modeled cost vs host cost, see fire_watches below): the
   index only ever replaces host-side tree walks — every simulated
   charge and counter the per-node walk would have made is still made,
   in the same order (see [uniqueness_scan] and [scan_names]).

   Consistency: every successful store mutation flows through
   [fire_watches] exactly once per modified path (plain ops, each
   transaction-commit path, and the Introduce/Release special events,
   which do not touch the store), so [note_modified] keeps the index
   exact incrementally; [name_idx_gen] tracks the store generation it
   mirrors and forces a full rebuild if they ever diverge. *)

let probe t path =
  match Xs_store.lookup t.store path with
  | None -> None
  | Some node -> Some (Xs_store.Node.value node, Xs_store.Node.perms node)

let refresh_domain t id =
  let dir = Xs_path.concat domain_dir id in
  match probe t dir with
  | None -> t.name_idx <- NMap.remove id t.name_idx
  | Some _ ->
      t.name_idx <-
        NMap.add id (probe t (Xs_path.concat dir "name")) t.name_idx

let note_modified t path =
  if t.name_idx_gen >= 0 then begin
    (match Xs_path.segments path with
    | "local" :: "domain" :: rest -> (
        match rest with
        | [] -> t.name_idx_gen <- -2 (* /local/domain replaced: rebuild *)
        | id :: _ -> refresh_domain t id)
    | [ "local" ] -> t.name_idx_gen <- -2 (* subtree may be gone *)
    | _ -> ());
    if t.name_idx_gen >= 0 then
      t.name_idx_gen <- Xs_store.generation t.store
  end

let ensure_index t =
  if t.name_idx_gen <> Xs_store.generation t.store then begin
    let idx =
      match Xs_store.directory t.store ~caller:0 domain_dir with
      | Error _ -> NMap.empty
      | Ok ids ->
          List.fold_left
            (fun idx id ->
              NMap.add id
                (probe t Xs_path.(concat (concat domain_dir id) "name"))
                idx)
            NMap.empty ids
    in
    t.name_idx <- idx;
    t.name_idx_gen <- Xs_store.generation t.store
  end

(* Identical modeled behaviour to the reference loop it replaces — the
   directory-entry charge, then per candidate a comparison counter tick
   and a per_name_cmp charge, stopping at the first collision in
   directory order (including its abort on a non-numeric child) — but
   reading the index instead of doing two store walks per guest. *)
let uniqueness_scan t path value =
  let p = t.profile in
  ensure_index t;
  if not (Xs_store.exists t.store domain_dir) then Ok ()
  else begin
    charge ~category:"xs.name_scan" t
      (float_of_int (NMap.cardinal t.name_idx) *. p.Xs_costs.per_dir_entry);
    let self =
      match Xs_path.segments path with
      | [ _; _; id; _ ] -> id
      | _ -> ""
    in
    let exception Stop of (unit, Xs_error.t) result in
    try
      NMap.iter
        (fun id entry ->
          if not (String.equal id self) then begin
            t.counters.uniqueness_cmps <- t.counters.uniqueness_cmps + 1;
            charge ~category:"xs.name_scan" t p.Xs_costs.per_name_cmp;
            if int_of_string_opt id = None then raise_notrace (Stop (Ok ()))
            else
              match entry with
              | Some (existing, _) when existing = value && value <> "" ->
                  raise_notrace (Stop (Error Xs_error.EEXIST))
              | Some _ | None -> ()
          end)
        t.name_idx;
      Ok ()
    with Stop r -> r
  end

(* Fire watches for one modified path. INVARIANT (modeled cost vs host
   cost): the real xenstored scans its whole watch list on every fire,
   and that linear scan is precisely what the paper measures — so we
   charge [count × per_watch_check] simulated ns here, always. The
   host-side lookup below is a trie ([Xs_watch.matching], O(depth +
   hits)) purely so large-N experiments finish in reasonable wall
   clock; it must never influence the simulated clock. *)
let fire_watches t modified =
  note_modified t modified;
  let p = t.profile in
  charge ~category:"xs.watch" t
    (float_of_int (Xs_watch.count t.watches) *. p.Xs_costs.per_watch_check);
  (* Most fires hit no watch; matching [] first spares them the
     iteration's closure. *)
  match Xs_watch.matching t.watches ~modified with
  | [] -> ()
  | hits ->
      List.iter
        (fun (_wpath, token, deliver) ->
          t.counters.watch_events <- t.counters.watch_events + 1;
          Trace.Counter.incr "xs.watch_fires";
          charge ~category:"xs.watch" t p.Xs_costs.watch_fire;
          let event = { Xs_watch.event_path = modified; token } in
          Engine.spawn ~name:"xs-watch-delivery" (fun () -> deliver event))
        hits

let equota_point = Fault.point "xs.equota"

let check_quota t ~caller path =
  (* Fault point: a spurious EQUOTA on a node-creating request, as a
     real oxenstored returns when another domain's allocations race the
     caller past its quota. Injected only for Dom0 clients — the
     toolstack and backend daemons, which own the retry/rollback
     machinery — never for guest frontends, whose drivers treat store
     errors as fatal. Checked before the store so the injection
     schedule depends only on the request sequence, not on contents. *)
  if caller = 0 then
    if Fault.fire equota_point then Error Xs_error.EQUOTA else Ok ()
  else if Xs_store.exists t.store path then Ok ()
  else if Xs_store.owned_count t.store ~domid:caller >= t.quota_nodes then
    Error Xs_error.EQUOTA
  else Ok ()

let lift = function Ok () -> Ok_unit | Error e -> Err e

let do_plain t ~caller req =
  let p = t.profile in
  match req with
  | Read path -> (
      match Xs_store.read t.store ~caller path with
      | Ok v -> Ok_value v
      | Error e -> Err e)
  | Directory path -> (
      match Xs_store.directory t.store ~caller path with
      | Ok entries ->
          charge ~category:"xs.dir" t
            (float_of_int (List.length entries) *. p.Xs_costs.per_dir_entry);
          Ok_list entries
      | Error e -> Err e)
  | Get_perms path -> (
      match Xs_store.get_perms t.store ~caller path with
      | Ok perms -> Ok_perms perms
      | Error e -> Err e)
  | Write (path, value) -> (
      match check_quota t ~caller path with
      | Error e -> Err e
      | Ok () -> (
          let unique =
            if is_name_write path then uniqueness_scan t path value
            else Ok ()
          in
          match unique with
          | Error e -> Err e
          | Ok () -> (
              match Xs_store.write t.store ~caller path value with
              | Ok () ->
                  fire_watches t path;
                  Ok_unit
              | Error e -> Err e)))
  | Mkdir path -> (
      match check_quota t ~caller path with
      | Error e -> Err e
      | Ok () -> (
          match Xs_store.mkdir t.store ~caller path with
          | Ok () ->
              fire_watches t path;
              Ok_unit
          | Error e -> Err e))
  | Rm path -> (
      match Xs_store.rm t.store ~caller path with
      | Ok () ->
          fire_watches t path;
          Ok_unit
      | Error e -> Err e)
  | Set_perms (path, perms) -> (
      match Xs_store.set_perms t.store ~caller path perms with
      | Ok () ->
          fire_watches t path;
          Ok_unit
      | Error e -> Err e)
  | Watch _ | Unwatch _ | Transaction_start | Transaction_end _
  | Get_domain_path _ | Introduce _ | Release _ ->
      Err Xs_error.EINVAL

let do_in_tx t ~caller tx req =
  match req with
  | Read path -> (
      match Xs_transaction.read tx ~caller path with
      | Ok v -> Ok_value v
      | Error e -> Err e)
  | Directory path -> (
      match Xs_transaction.directory tx ~caller path with
      | Ok entries -> Ok_list entries
      | Error e -> Err e)
  | Write (path, value) -> (
      match check_quota t ~caller path with
      | Error e -> Err e
      | Ok () -> lift (Xs_transaction.write tx ~caller path value))
  | Mkdir path -> lift (Xs_transaction.mkdir tx ~caller path)
  | Rm path -> lift (Xs_transaction.rm tx ~caller path)
  | Set_perms (path, perms) ->
      lift (Xs_transaction.set_perms tx ~caller path perms)
  | Get_perms path -> (
      match Xs_store.get_perms (Xs_transaction.view tx) ~caller path with
      | Ok perms -> Ok_perms perms
      | Error e -> Err e)
  | Watch _ | Unwatch _ | Transaction_start | Transaction_end _
  | Get_domain_path _ | Introduce _ | Release _ ->
      Err Xs_error.EINVAL

let eagain_point = Fault.point "xs.eagain"

let end_transaction t tx commit =
  let p = t.profile in
  charge ~category:"xs.tx" t p.Xs_costs.tx_commit;
  if not commit then begin
    Xs_transaction.abort tx;
    Ok_unit
  end
  else begin
    charge ~category:"xs.tx" t
      (float_of_int (Xs_transaction.op_count tx)
      *. p.Xs_costs.tx_replay_per_op);
    (* Fault point: the snapshot is declared stale exactly as if a
       concurrent commit had invalidated the read set — the journal is
       discarded and the caller sees EAGAIN, the same path a genuine
       conflict takes. *)
    let commit_result =
      if Fault.fire eagain_point then begin
        Xs_transaction.abort tx;
        Error Xs_error.EAGAIN
      end
      else Xs_transaction.commit tx ~into:t.store
    in
    match commit_result with
    | Ok modified ->
        t.counters.tx_commits <- t.counters.tx_commits + 1;
        List.iter (fun path -> fire_watches t path) modified;
        Ok_unit
    | Error e ->
        t.counters.tx_conflicts <- t.counters.tx_conflicts + 1;
        Err e
  end

let dispatch t ~caller ~tx req =
  let p = t.profile in
  match req with
  | Transaction_start ->
      charge ~category:"xs.tx" t p.Xs_costs.tx_start;
      let txid = t.next_txid in
      t.next_txid <- t.next_txid + 1;
      if Hashtbl.length t.txs > 256 then Err Xs_error.EBUSY
      else begin
        Hashtbl.replace t.txs txid
          (caller, Xs_transaction.start t.store ~id:txid);
        Ok_txid txid
      end
  | Transaction_end commit -> (
      match tx with
      | None -> Err Xs_error.EINVAL
      | Some txid -> (
          match Hashtbl.find_opt t.txs txid with
          | None -> Err Xs_error.EINVAL
          | Some (owner, transaction) ->
              if owner <> caller then Err Xs_error.EACCES
              else begin
                Hashtbl.remove t.txs txid;
                end_transaction t transaction commit
              end))
  | Get_domain_path domid ->
      Ok_path (Xs_path.to_string (Xs_path.domain_path domid))
  | Introduce domid ->
      fire_watches t introduce_path;
      ignore domid;
      Ok_unit
  | Release domid ->
      ignore (Xs_watch.remove_owner t.watches ~owner:domid);
      List.iter
        (fun (txid, (owner, transaction)) ->
          if owner = domid then begin
            Xs_transaction.abort transaction;
            Hashtbl.remove t.txs txid
          end)
        (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.txs []);
      fire_watches t release_path;
      Ok_unit
  | Unwatch (path, token) ->
      if Xs_watch.remove t.watches ~owner:caller ~path ~token then Ok_unit
      else Err Xs_error.ENOENT
  | Watch _ -> Err Xs_error.EINVAL (* use the [watch] entry point *)
  | (Read _ | Write _ | Mkdir _ | Rm _ | Directory _ | Get_perms _
    | Set_perms _) as plain -> (
      match tx with
      | None -> do_plain t ~caller plain
      | Some txid -> (
          match Hashtbl.find_opt t.txs txid with
          | None -> Err Xs_error.EINVAL
          | Some (owner, transaction) ->
              if owner <> caller then Err Xs_error.EACCES
              else do_in_tx t ~caller transaction plain))

let with_daemon t f =
  Resource.with_resource t.mutex (fun () ->
      t.counters.ops <- t.counters.ops + 1;
      f ())

let request_kind = function
  | Read _ -> "read"
  | Write _ -> "write"
  | Mkdir _ -> "mkdir"
  | Rm _ -> "rm"
  | Directory _ -> "directory"
  | Get_perms _ -> "get_perms"
  | Set_perms _ -> "set_perms"
  | Watch _ -> "watch"
  | Unwatch _ -> "unwatch"
  | Transaction_start -> "transaction_start"
  | Transaction_end _ -> "transaction_end"
  | Get_domain_path _ -> "get_domain_path"
  | Introduce _ -> "introduce"
  | Release _ -> "release"

(* One span per dispatched request, plus the counters the paper cares
   about: ops by type, softirqs and privilege crossings implied by the
   request/ack message protocol. *)
let traced_request t ~caller req f =
  let payload_bytes = request_payload_bytes req in
  if not (Trace.enabled ()) then begin
    (* Requests are the host hot path at large guest counts (libxl's
       name scans issue O(guests) of them per creation), so skip the
       span/counter bookkeeping — including its attr and label
       allocations — entirely when tracing is off. The simulated
       charges are identical on both branches. *)
    charge ~category:"xs.message" t
      (Xs_costs.message_cost t.profile ~payload_bytes);
    charge_logging t;
    f ()
  end
  else begin
    let kind = request_kind req in
    Trace.Counter.incr ("xs.op." ^ kind);
    Trace.Counter.incr ~by:t.profile.Xs_costs.irqs_per_message "xs.softirqs";
    Trace.Counter.incr ~by:t.profile.Xs_costs.crossings_per_message
      "xs.crossings";
    let cmps_before = t.counters.uniqueness_cmps in
    let sp =
      Trace.Span.begin_ ~category:"xs"
        ~attrs:
          [
            ("caller", string_of_int caller);
            ("payload_bytes", string_of_int payload_bytes);
          ]
        kind
    in
    Fun.protect
      ~finally:(fun () ->
        let cmps = t.counters.uniqueness_cmps - cmps_before in
        if cmps > 0 then
          Trace.Span.add_attr sp "name_cmps" (string_of_int cmps);
        Trace.Span.end_ sp)
      (fun () ->
        charge ~category:"xs.message" t
          (Xs_costs.message_cost t.profile ~payload_bytes);
        charge_logging t;
        f ())
  end

let op t ~caller ?tx req =
  with_daemon t (fun () ->
      traced_request t ~caller req (fun () -> dispatch t ~caller ~tx req))

(* Bulk name resolution (libxl_name_to_domid's scan): modeled exactly
   as a Directory of /local/domain followed by one Read of every
   child's name node — the same message/logging charges, ops counts and
   directory-entry charge, in the same order — but served from the name
   index, skipping the per-request path construction, tree walks and
   response allocation that made this scan the host-side hot path at
   large guest counts. With tracing enabled the reference per-request
   loop runs instead, keeping one span per modeled request. *)
let scan_names t ~caller =
  if Trace.enabled () then begin
    let ids =
      match op t ~caller (Directory domain_dir) with
      | Ok_list ids -> ids
      | Err e -> raise (Xs_error.Error e)
      | _ -> raise (Xs_error.Error Xs_error.EINVAL)
    in
    List.filter_map
      (fun id ->
        match
          op t ~caller (Read Xs_path.(concat (concat domain_dir id) "name"))
        with
        | Ok_value v -> Some v
        | Err Xs_error.ENOENT -> None
        | Err e -> raise (Xs_error.Error e)
        | _ -> None)
      ids
  end
  else begin
    let p = t.profile in
    with_daemon t (fun () ->
        charge ~category:"xs.message" t
          (Xs_costs.message_cost p
             ~payload_bytes:
               (String.length (Xs_path.to_string domain_dir) + 1));
        charge_logging t;
        ensure_index t;
        match Xs_store.lookup t.store domain_dir with
        | None -> raise (Xs_error.Error Xs_error.ENOENT)
        | Some node ->
            if
              not
                (Xs_perms.can_read (Xs_store.Node.perms node) ~domid:caller)
            then raise (Xs_error.Error Xs_error.EACCES);
            charge ~category:"xs.dir" t
              (float_of_int (NMap.cardinal t.name_idx)
              *. p.Xs_costs.per_dir_entry));
    (* One modeled Read round-trip per directory entry: payload is
       "/local/domain/" ^ id ^ "/name" plus the trailing NUL. *)
    let base =
      String.length (Xs_path.to_string domain_dir)
      + String.length "/name" + 2
    in
    let names =
      NMap.fold
        (fun id entry acc ->
          with_daemon t (fun () ->
              charge ~category:"xs.message" t
                (Xs_costs.message_cost p
                   ~payload_bytes:(base + String.length id));
              charge_logging t);
          match entry with
          | Some (v, perms) ->
              if Xs_perms.can_read perms ~domid:caller then v :: acc
              else raise (Xs_error.Error Xs_error.EACCES)
          | None -> acc)
        t.name_idx []
    in
    List.rev names
  end

let watch t ~caller ~path ~token ~deliver =
  with_daemon t (fun () ->
      traced_request t ~caller
        (Watch (path, token))
        (fun () ->
          Xs_watch.add t.watches ~owner:caller ~path ~token ~deliver;
          (* Registering a watch immediately fires it once (protocol
             rule). *)
          t.counters.watch_events <- t.counters.watch_events + 1;
          Trace.Counter.incr "xs.watch_fires";
          charge ~category:"xs.watch" t t.profile.Xs_costs.watch_fire;
          Engine.spawn ~name:"xs-watch-initial" (fun () ->
              deliver { Xs_watch.event_path = path; token });
          Ok_unit))

(* Conflicted commits retried before [transaction] gives up. *)
let max_retries = 8

let transaction t ~caller f =
  let rec attempt n =
    match op t ~caller Transaction_start with
    | Ok_txid txid -> (
        let body_result = f txid in
        match body_result with
        | Error _ as e ->
            ignore (op t ~caller ~tx:txid (Transaction_end false));
            e
        | Ok v -> (
            match op t ~caller ~tx:txid (Transaction_end true) with
            | Ok_unit -> Ok v
            | Err Xs_error.EAGAIN when n < max_retries ->
                (* Bounded retry with exponential backoff: the caller
                   sleeps base * 2^n before re-reading the snapshot, so
                   conflicting writers decorrelate instead of livelocking
                   the daemon with immediate replays. Client-side wait —
                   the daemon mutex is not held and busy_time does not
                   accrue. Only taken on an actual conflict, so
                   conflict-free runs are unchanged. *)
                Trace.charge ~category:"xs.backoff"
                  (t.profile.Xs_costs.tx_backoff_base
                  *. float_of_int (1 lsl Stdlib.min n 6));
                attempt (n + 1)
            | Err e -> Error e
            | _ -> Error Xs_error.EINVAL))
    | Err e -> Error e
    | _ -> Error Xs_error.EINVAL
  in
  attempt 0

(* ------------------------------------------------------------------ *)
(* Wire interface *)

let handle_packet t ~caller buf =
  let header, args = Xs_wire.unpack buf in
  let tx =
    if header.Xs_wire.tx_id = 0l then None
    else Some (Int32.to_int header.Xs_wire.tx_id)
  in
  let reply_to op payload =
    Xs_wire.pack op ~req_id:header.Xs_wire.req_id
      ~tx_id:header.Xs_wire.tx_id payload
  in
  let error e = reply_to Xs_wire.Error [ Xs_error.to_string e ] in
  let path_arg () =
    match args with
    | p :: _ -> Xs_path.of_string p
    | [] -> raise (Xs_wire.Malformed "missing path")
  in
  try
    let result =
      match header.Xs_wire.op with
      | Xs_wire.Read -> op t ~caller ?tx (Read (path_arg ()))
      | Xs_wire.Write -> (
          match args with
          | [ p; v ] -> op t ~caller ?tx (Write (Xs_path.of_string p, v))
          | [ p ] -> op t ~caller ?tx (Write (Xs_path.of_string p, ""))
          | _ -> Err Xs_error.EINVAL)
      | Xs_wire.Mkdir -> op t ~caller ?tx (Mkdir (path_arg ()))
      | Xs_wire.Rm -> op t ~caller ?tx (Rm (path_arg ()))
      | Xs_wire.Directory -> op t ~caller ?tx (Directory (path_arg ()))
      | Xs_wire.Get_perms -> op t ~caller ?tx (Get_perms (path_arg ()))
      | Xs_wire.Set_perms -> (
          match args with
          | [ p; perms ] -> (
              match Xs_perms.of_string perms with
              | Some perms ->
                  op t ~caller ?tx (Set_perms (Xs_path.of_string p, perms))
              | None -> Err Xs_error.EINVAL)
          | _ -> Err Xs_error.EINVAL)
      | Xs_wire.Watch -> (
          match args with
          | [ p; token ] ->
              watch t ~caller ~path:(Xs_path.of_string p) ~token
                ~deliver:ignore
          | _ -> Err Xs_error.EINVAL)
      | Xs_wire.Unwatch -> (
          match args with
          | [ p; token ] ->
              op t ~caller ?tx (Unwatch (Xs_path.of_string p, token))
          | _ -> Err Xs_error.EINVAL)
      | Xs_wire.Transaction_start -> op t ~caller Transaction_start
      | Xs_wire.Transaction_end ->
          op t ~caller ?tx (Transaction_end (args = [ "T" ]))
      | Xs_wire.Get_domain_path -> (
          match args with
          | [ d ] -> (
              match int_of_string_opt d with
              | Some domid -> op t ~caller (Get_domain_path domid)
              | None -> Err Xs_error.EINVAL)
          | _ -> Err Xs_error.EINVAL)
      | Xs_wire.Introduce -> (
          match args with
          | d :: _ -> (
              match int_of_string_opt d with
              | Some domid -> op t ~caller (Introduce domid)
              | None -> Err Xs_error.EINVAL)
          | _ -> Err Xs_error.EINVAL)
      | Xs_wire.Release -> (
          match args with
          | [ d ] -> (
              match int_of_string_opt d with
              | Some domid -> op t ~caller (Release domid)
              | None -> Err Xs_error.EINVAL)
          | _ -> Err Xs_error.EINVAL)
      | Xs_wire.Debug | Xs_wire.Watch_event | Xs_wire.Error
      | Xs_wire.Is_domain_introduced | Xs_wire.Resume
      | Xs_wire.Set_target ->
          Err Xs_error.EINVAL
    in
    match result with
    | Ok_unit -> reply_to header.Xs_wire.op [ "OK" ]
    | Ok_value v -> reply_to header.Xs_wire.op [ v ]
    | Ok_list entries -> reply_to header.Xs_wire.op entries
    | Ok_perms perms -> reply_to header.Xs_wire.op [ Xs_perms.to_string perms ]
    | Ok_txid txid -> reply_to header.Xs_wire.op [ string_of_int txid ]
    | Ok_path p -> reply_to header.Xs_wire.op [ p ]
    | Err e -> error e
  with
  | Xs_path.Invalid _ -> error Xs_error.EINVAL
  | Xs_wire.Malformed _ -> error Xs_error.EINVAL
