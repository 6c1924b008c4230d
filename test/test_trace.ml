(* Tests for the span-and-counter tracing subsystem (lib/trace): span
   nesting against the virtual clock, ring eviction, counters for a
   known creation path, Chrome JSON export, and the guarantee that the
   Fig 5 breakdown is unchanged by turning the tracer on. *)

module Engine = Lightvm_sim.Engine
module Series = Lightvm_metrics.Series
module Trace = Lightvm_trace.Trace
module Trace_export = Lightvm_trace.Trace_export
module Xen = Lightvm_hv.Xen
module Image = Lightvm_guest.Image
module Mode = Lightvm_toolstack.Mode
module Create = Lightvm_toolstack.Create
module Toolstack = Lightvm_toolstack.Toolstack
module Xs_server = Lightvm_xenstore.Xs_server
module Vmm = Lightvm_cluster.Vmm
module E = Lightvm.Experiment

(* Guests keep periodic timers alive, so experiments stop the engine
   once the body returns (same shape as Experiment.sim). *)
let run_sim f =
  let result = ref None in
  ignore
    (Engine.run (fun () ->
         result := Some (f ());
         Engine.stop ()));
  match !result with
  | Some r -> r
  | None -> Alcotest.fail "simulation did not complete"

(* Every test leaves the global tracer off and empty. *)
let with_trace ?capacity f =
  Trace.enable ?capacity ();
  Fun.protect ~finally:Trace.disable f

(* ------------------------------------------------------------------ *)
(* Span nesting and virtual-clock ordering *)

let test_span_nesting () =
  with_trace (fun () ->
      ignore
        (Engine.run (fun () ->
             Trace.Span.with_ ~category:"t" "outer" (fun () ->
                 Engine.sleep 1.0;
                 Trace.Span.with_ ~category:"t" "inner" (fun () ->
                     Engine.sleep 2.0);
                 Engine.sleep 0.5)));
      match Trace.spans () with
      | [ inner; outer ] ->
          (* completion order: the inner span ends first *)
          Alcotest.(check string) "inner first" "inner" inner.Trace.sp_name;
          Alcotest.(check string) "outer second" "outer" outer.Trace.sp_name;
          Alcotest.(check int) "inner depth" 1 inner.Trace.sp_depth;
          Alcotest.(check int) "outer depth" 0 outer.Trace.sp_depth;
          Alcotest.(check bool) "inner within outer" true
            (outer.Trace.sp_start <= inner.Trace.sp_start
            && inner.Trace.sp_end <= outer.Trace.sp_end);
          Alcotest.(check (float 1e-9)) "outer duration" 3.5
            (Trace.duration outer);
          Alcotest.(check (float 1e-9)) "inner duration" 2.0
            (Trace.duration inner);
          (* self time excludes the nested span *)
          Alcotest.(check (float 1e-9)) "outer self" 1.5 outer.Trace.sp_self;
          Alcotest.(check (float 1e-9)) "inner self" 2.0 inner.Trace.sp_self
      | spans ->
          Alcotest.failf "expected 2 spans, got %d" (List.length spans))

let test_ring_eviction_keeps_newest () =
  with_trace ~capacity:4 (fun () ->
      ignore
        (Engine.run (fun () ->
             for i = 1 to 10 do
               Trace.Span.with_ ~category:"t" (string_of_int i) (fun () ->
                   Engine.sleep 1.0)
             done));
      Alcotest.(check int) "retained" 4 (List.length (Trace.spans ()));
      Alcotest.(check int) "evicted" 6 (Trace.evicted ());
      Alcotest.(check int) "total ever recorded" 10 (Trace.span_count ());
      Alcotest.(check (list string))
        "newest kept, oldest first"
        [ "7"; "8"; "9"; "10" ]
        (List.map (fun s -> s.Trace.sp_name) (Trace.spans ())))

(* ------------------------------------------------------------------ *)
(* Counters for a single chaos [XS] create *)

let test_create_counters () =
  with_trace (fun () ->
      run_sim (fun () ->
          let host = Vmm.create ~mode:Mode.chaos_xs () in
          ignore (Vmm_boot.boot host Image.daytime);
          let ts = Vmm.toolstack host in
          let env = Toolstack.env ts in
          let c = Xs_server.counters (Toolstack.xs_server ts) in
          (* The tracer's tallies must agree with the components' own
             counters. *)
          Alcotest.(check int) "hypercalls"
            (Xen.hypercalls env.Create.xen)
            (Trace.Counter.value "hv.hypercalls");
          Alcotest.(check int) "two crossings per hypercall"
            (2 * Xen.hypercalls env.Create.xen)
            (Trace.Counter.value "hv.crossings");
          let xs_ops =
            List.fold_left
              (fun acc (name, v) ->
                if String.starts_with ~prefix:"xs.op." name then acc + v
                else acc)
              0 (Trace.Counter.all ())
          in
          Alcotest.(check int) "per-type op counters sum to daemon ops"
            c.Xs_server.ops xs_ops;
          Alcotest.(check int) "watch fires"
            c.Xs_server.watch_events
            (Trace.Counter.value "xs.watch_fires");
          (* oxenstored: 4 softirqs and 4 crossings per message. *)
          Alcotest.(check int) "softirqs" (4 * c.Xs_server.ops)
            (Trace.Counter.value "xs.softirqs");
          Alcotest.(check int) "xs crossings" (4 * c.Xs_server.ops)
            (Trace.Counter.value "xs.crossings");
          (* One create = the full 9-phase pipeline, one span each. *)
          let create_spans =
            List.filter
              (fun s -> s.Trace.sp_category = "create")
              (Trace.spans ())
          in
          Alcotest.(check int) "9 phase spans" 9 (List.length create_spans);
          (* Charged virtual time is attributed per category. *)
          Alcotest.(check bool) "xs.message charge recorded" true
            (match List.assoc_opt "xs.message" (Trace.charged ()) with
            | Some t -> t > 0.
            | None -> false)))

(* ------------------------------------------------------------------ *)
(* Chrome JSON export *)

(* A deliberately small JSON parser — just enough structure to prove
   the exporter's output parses: values, objects, arrays, strings with
   escapes, numbers, literals. *)
let check_json s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = Alcotest.failf "json: %s at offset %d" msg !pos in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      incr pos
    done
  in
  let expect c =
    if peek () = Some c then incr pos
    else fail (Printf.sprintf "expected %c" c)
  in
  let string_lit () =
    expect '"';
    let rec loop () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> incr pos
        | '\\' ->
            incr pos;
            (match peek () with
            | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') ->
                incr pos
            | Some 'u' -> pos := !pos + 5
            | _ -> fail "bad escape");
            loop ()
        | _ ->
            incr pos;
            loop ()
    in
    loop ()
  in
  let number () =
    let start = !pos in
    while
      !pos < n
      &&
      match s.[!pos] with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    do
      incr pos
    done;
    if !pos = start then fail "bad number"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        expect '{';
        skip_ws ();
        if peek () = Some '}' then incr pos
        else
          let rec members () =
            skip_ws ();
            string_lit ();
            skip_ws ();
            expect ':';
            value ();
            skip_ws ();
            if peek () = Some ',' then begin
              incr pos;
              members ()
            end
            else expect '}'
          in
          members ()
    | Some '[' ->
        expect '[';
        skip_ws ();
        if peek () = Some ']' then incr pos
        else
          let rec elements () =
            value ();
            skip_ws ();
            if peek () = Some ',' then begin
              incr pos;
              elements ()
            end
            else expect ']'
          in
          elements ()
    | Some '"' -> string_lit ()
    | Some ('-' | '0' .. '9') -> number ()
    | Some 't' -> pos := !pos + 4
    | Some 'f' -> pos := !pos + 5
    | Some 'n' -> pos := !pos + 4
    | _ -> fail "expected a value"
  in
  value ();
  skip_ws ();
  if !pos <> n then fail "trailing garbage"

let count_substring hay needle =
  let rec loop from acc =
    match String.index_from_opt hay from needle.[0] with
    | None -> acc
    | Some i ->
        if
          i + String.length needle <= String.length hay
          && String.sub hay i (String.length needle) = needle
        then loop (i + 1) (acc + 1)
        else loop (i + 1) acc
  in
  loop 0 0

let test_chrome_json () =
  with_trace (fun () ->
      run_sim (fun () ->
          let host = Vmm.create ~mode:Mode.xl () in
          ignore (Vmm_boot.boot host Image.daytime));
      let json = Trace_export.to_chrome_json () in
      check_json json;
      Alcotest.(check bool) "has traceEvents" true
        (count_substring json "\"traceEvents\"" = 1);
      (* One complete ("X") event per retained span, one counter ("C")
         event per counter. *)
      Alcotest.(check int) "one X event per span"
        (List.length (Trace.spans ()))
        (count_substring json "\"ph\":\"X\"");
      Alcotest.(check int) "one C event per counter"
        (List.length (Trace.Counter.all ()))
        (count_substring json "\"ph\":\"C\""))

(* ------------------------------------------------------------------ *)
(* The Fig 5 breakdown is bit-identical with the tracer on *)

let test_fig5_breakdown_unchanged () =
  Trace.disable ();
  (* n = 10 samples guests 1 and 10 of the breakdown. *)
  let fig5 () = (Plan_run.run ~n:10 "fig5").E.series in
  let baseline = fig5 () in
  let traced = with_trace ~capacity:100_000 fig5 in
  List.iter
    (fun (l : E.labelled) ->
      Alcotest.(check int)
        (l.E.label ^ ": two sampled points")
        2
        (Series.length l.E.series))
    baseline;
  List.iter2
    (fun (a : E.labelled) (b : E.labelled) ->
      Alcotest.(check string) "label" a.E.label b.E.label;
      let pa = Series.points a.E.series and pb = Series.points b.E.series in
      Alcotest.(check int) "point count" (List.length pa) (List.length pb);
      List.iter2
        (fun (xa, ya) (xb, yb) ->
          Alcotest.(check (float 0.)) "x" xa xb;
          Alcotest.(check (float 0.)) "y (bit-identical)" ya yb)
        pa pb)
    baseline traced

(* ------------------------------------------------------------------ *)
(* Tracing on, every instrumented site still emits its spans and
   counters exactly once: the span count per (category, name) of a
   traced fig5 at n = 10, and its counters, as the implementation that
   always built spans, attributes and counters produced them. The
   engine's lifecycle counters also show that installed hooks keep
   every in-place sleep and CPU burst on the parking path. *)

let fig5_span_counts =
  [
    ("config", "config", 10); ("create", "phase1:reserve", 10);
    ("create", "phase2:compute_alloc", 10); ("create", "phase3:set_maxmem", 10);
    ("create", "phase4:populate", 10);
    ("create", "phase5:precreate_devices", 10); ("create", "phase6:parse", 10);
    ("create", "phase7:init_devices", 10); ("create", "phase8:build", 10);
    ("create", "phase9:boot", 10); ("create", "rollback", 0);
    ("devices", "devices", 20); ("hv", "domctl_create", 10);
    ("hv", "domctl_unpause", 10); ("hv", "evtchn_op", 40);
    ("hv", "gnttab_op", 40); ("hv", "load_image", 10);
    ("hv", "populate_physmap", 10); ("hv", "set_maxmem", 10);
    ("hypervisor", "hypervisor", 40); ("load", "load", 10);
    ("toolstack", "toolstack", 40); ("xenstore", "xenstore", 50);
  ]

let fig5_counters =
  [
    ("hv.crossings", 260); ("hv.hypercalls", 130);
    ("sim.process_parks", 4743); ("sim.process_spawns", 161);
    ("sim.process_wakes", 4733);
  ]

let span_counts pins =
  let spans = Trace.spans () in
  List.map
    (fun (category, name, _) ->
      ( category,
        name,
        List.length
          (List.filter
             (fun s -> s.Trace.sp_category = category && s.Trace.sp_name = name)
             spans) ))
    pins

let test_fig5_trace_parity () =
  with_trace ~capacity:100_000 (fun () ->
      ignore (Plan_run.run ~n:10 "fig5");
      Alcotest.(check int) "nothing evicted" 0 (Trace.evicted ());
      Alcotest.(check (list (triple string string int)))
        "spans per (category, name)" fig5_span_counts
        (span_counts fig5_span_counts);
      Alcotest.(check (list (pair string int)))
        "counters" fig5_counters
        (List.map (fun (k, _) -> (k, Trace.Counter.value k)) fig5_counters))

(* A creation that fails in phase 5 rolls back under one span carrying
   the domid. *)
let test_rollback_span () =
  let spec =
    match Lightvm_sim.Fault.parse_spec "create.phase5:1" with
    | Ok spec -> spec
    | Error msg -> Alcotest.fail msg
  in
  with_trace (fun () ->
      run_sim (fun () ->
          let host = Vmm.create ~mode:Mode.chaos_xs () in
          Lightvm_sim.Fault.with_injector (Lightvm_sim.Fault.create spec)
            (fun () ->
              match
                Vmm.vm_create host
                  (Vmm.vm_request ~name:"doomed" ~nics:1 Image.daytime)
              with
              | Ok _ -> Alcotest.fail "phase 5 was meant to fail"
              | Error _ -> ()));
      match
        List.filter (fun s -> s.Trace.sp_name = "rollback") (Trace.spans ())
      with
      | [ s ] ->
          Alcotest.(check string) "category" "create" s.Trace.sp_category;
          Alcotest.(check (list (pair string string)))
            "attributes" [ ("domid", "1") ] s.Trace.sp_attrs
      | l -> Alcotest.failf "%d rollback spans, expected one" (List.length l))

let suites =
  [
    ( "trace",
      [
        Alcotest.test_case "span nesting" `Quick test_span_nesting;
        Alcotest.test_case "ring eviction" `Quick
          test_ring_eviction_keeps_newest;
        Alcotest.test_case "create counters" `Quick test_create_counters;
        Alcotest.test_case "chrome json" `Quick test_chrome_json;
        Alcotest.test_case "fig5 unchanged" `Quick
          test_fig5_breakdown_unchanged;
        Alcotest.test_case "fig5 traced spans and counters" `Quick
          test_fig5_trace_parity;
        Alcotest.test_case "rollback span" `Quick test_rollback_span;
      ] );
  ]
