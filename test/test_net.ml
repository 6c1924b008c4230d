(* Tests for the network substrate: switch, flows, TLS. *)

module Engine = Lightvm_sim.Engine
module Packet = Lightvm_net.Packet
module Switch = Lightvm_net.Switch
module Flow = Lightvm_net.Flow
module Tls = Lightvm_net.Tls
module Stack = Lightvm_net.Stack

let in_sim f () = ignore (Engine.run f)

(* ------------------------------------------------------------------ *)
(* Switch *)

let test_switch_learning_and_forwarding =
  in_sim (fun () ->
      let sw = Switch.create () in
      let got = Hashtbl.create 4 in
      let attach port =
        Switch.attach sw ~port ~handler:(fun pkt ->
            Hashtbl.replace got (port, pkt.Packet.seq) pkt)
      in
      attach 1;
      attach 2;
      attach 3;
      (* 1 -> 2 before learning: flooded to 2 and 3. *)
      Switch.send sw
        (Packet.make ~src:1 ~dst:(Packet.Addr 2) ~kind:Packet.Udp ~seq:1 ());
      Engine.sleep 0.001;
      Alcotest.(check bool) "flooded to 2" true (Hashtbl.mem got (2, 1));
      Alcotest.(check bool) "flooded to 3" true (Hashtbl.mem got (3, 1));
      (* 2 replies; now 1 and 2 are learned: 1 -> 2 is unicast only. *)
      Switch.send sw
        (Packet.make ~src:2 ~dst:(Packet.Addr 1) ~kind:Packet.Udp ~seq:2 ());
      Engine.sleep 0.001;
      Switch.send sw
        (Packet.make ~src:1 ~dst:(Packet.Addr 2) ~kind:Packet.Udp ~seq:3 ());
      Engine.sleep 0.001;
      Alcotest.(check bool) "unicast to 2" true (Hashtbl.mem got (2, 3));
      Alcotest.(check bool) "not to 3" false (Hashtbl.mem got (3, 3));
      Alcotest.(check int) "fdb" 2 (Switch.learned sw))

let test_switch_broadcast =
  in_sim (fun () ->
      let sw = Switch.create () in
      let hits = ref 0 in
      for port = 1 to 5 do
        Switch.attach sw ~port ~handler:(fun _ -> incr hits)
      done;
      Switch.send sw
        (Packet.make ~src:1 ~dst:Packet.Broadcast ~kind:Packet.Arp_request
           ~seq:1 ());
      Engine.sleep 0.001;
      Alcotest.(check int) "all but sender" 4 !hits)

let test_switch_overload_drops_arp =
  in_sim (fun () ->
      (* Tiny capacity so the test saturates it instantly. *)
      let sw = Switch.create ~capacity_pps:1000. () in
      for port = 1 to 10 do
        Switch.attach sw ~port ~handler:(fun _ -> ())
      done;
      (* A burst past the bucket's 2,048 packets, all at one instant:
         broadcasts must be shed first. *)
      for i = 1 to 2048 do
        Switch.send sw
          (Packet.make ~src:1 ~dst:Packet.Broadcast
             ~kind:Packet.Arp_request ~seq:i ());
        Switch.send sw
          (Packet.make ~src:1 ~dst:(Packet.Addr 2) ~kind:Packet.Udp
             ~seq:(10_000 + i) ())
      done;
      Alcotest.(check bool) "drops happened" true (Switch.dropped sw > 0);
      Alcotest.(check bool) "mostly ARP dropped" true
        (2 * Switch.dropped_broadcast sw > Switch.dropped sw))

let test_switch_detach =
  in_sim (fun () ->
      let sw = Switch.create () in
      let got = ref 0 in
      Switch.attach sw ~port:1 ~handler:(fun _ -> ());
      Switch.attach sw ~port:2 ~handler:(fun _ -> incr got);
      Switch.detach sw ~port:2;
      Switch.send sw
        (Packet.make ~src:1 ~dst:(Packet.Addr 2) ~kind:Packet.Udp ~seq:1 ());
      Engine.sleep 0.001;
      Alcotest.(check int) "nothing delivered" 0 !got)

(* ------------------------------------------------------------------ *)
(* Flows *)

let demand ?(offered = 10.0e6) ?(cpu_per_bit = 1.0e-9) ~id ~core () =
  { Flow.flow_id = id; offered_bps = offered; cpu_per_bit; core }

let test_flow_undersubscribed () =
  let demands = List.init 4 (fun i -> demand ~id:i ~core:0 ()) in
  let allocs = Flow.allocate ~core_speed:1.0 ~demands in
  List.iter
    (fun a ->
      Alcotest.(check (float 1.)) "full rate" 10.0e6 a.Flow.achieved_bps)
    allocs

let test_flow_saturated_fair () =
  (* Each flow needs 0.4 cores; 4 flows on one core -> 0.25 each. *)
  let demands =
    List.init 4 (fun i -> demand ~id:i ~cpu_per_bit:4.0e-8 ~core:0 ())
  in
  let allocs = Flow.allocate ~core_speed:1.0 ~demands in
  List.iter
    (fun a ->
      Alcotest.(check (float 1e4)) "fair share" 6.25e6 a.Flow.achieved_bps)
    allocs;
  Alcotest.(check (float 1e5)) "total is core capacity" 25.0e6
    (Flow.total_bps allocs)

let test_flow_max_min () =
  (* One small flow and one huge flow: small one fully satisfied. *)
  let demands =
    [
      demand ~id:0 ~offered:1.0e6 ~cpu_per_bit:4.0e-8 ~core:0 ();
      demand ~id:1 ~offered:100.0e6 ~cpu_per_bit:4.0e-8 ~core:0 ();
    ]
  in
  match Flow.allocate ~core_speed:1.0 ~demands with
  | [ small; big ] ->
      Alcotest.(check (float 1.)) "small satisfied" 1.0e6
        small.Flow.achieved_bps;
      (* Remaining 0.96 cores -> 24 Mbps for the big flow. *)
      Alcotest.(check (float 1e4)) "big gets the rest" 24.0e6
        big.Flow.achieved_bps
  | _ -> Alcotest.fail "wrong allocation shape"

let test_flow_cores_independent () =
  let demands =
    [ demand ~id:0 ~cpu_per_bit:4.0e-8 ~offered:100.0e6 ~core:0 ();
      demand ~id:1 ~cpu_per_bit:4.0e-8 ~offered:100.0e6 ~core:1 () ]
  in
  let allocs = Flow.allocate ~core_speed:1.0 ~demands in
  List.iter
    (fun a ->
      Alcotest.(check (float 1e4)) "each core alone" 25.0e6
        a.Flow.achieved_bps)
    allocs

let prop_flow_never_exceeds_capacity =
  QCheck.Test.make ~name:"flow allocation respects core capacity"
    ~count:100
    QCheck.(list_of_size Gen.(int_range 1 20)
              (pair (float_bound_exclusive 100.) (int_range 0 3)))
    (fun specs ->
      let demands =
        List.mapi
          (fun i (mbps, core) ->
            demand ~id:i ~offered:((mbps +. 0.1) *. 1e6)
              ~cpu_per_bit:2.0e-8 ~core ())
          specs
      in
      let allocs = Flow.allocate ~core_speed:1.0 ~demands in
      (* Per-core CPU use must not exceed capacity (1.0 + eps). *)
      let cpu_by_core = Hashtbl.create 4 in
      List.iter2
        (fun d a ->
          let used =
            Option.value ~default:0.
              (Hashtbl.find_opt cpu_by_core d.Flow.core)
          in
          Hashtbl.replace cpu_by_core d.Flow.core
            (used +. (a.Flow.achieved_bps *. d.Flow.cpu_per_bit)))
        demands allocs;
      Hashtbl.fold (fun _ used ok -> ok && used <= 1.0 +. 1e-9)
        cpu_by_core true
      && List.for_all2
           (fun d a ->
             a.Flow.achieved_bps <= d.Flow.offered_bps +. 1e-6)
           demands allocs)

(* ------------------------------------------------------------------ *)
(* TLS *)

let test_tls_state_machine () =
  let final =
    List.fold_left
      (fun state msg ->
        match Tls.step state msg with
        | Ok s -> s
        | Error e -> Alcotest.failf "handshake step failed: %s" e)
      Tls.initial Tls.handshake_messages
  in
  Alcotest.(check bool) "complete" true (Tls.is_complete final)

let test_tls_out_of_order () =
  match Tls.step Tls.initial Tls.Finished with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "out-of-order message accepted"

let test_tls_costs () =
  let linux = Tls.server_handshake_cpu Tls.rsa_1024 ~stack:Stack.linux in
  let lwip = Tls.server_handshake_cpu Tls.rsa_1024 ~stack:Stack.lwip in
  (* lwip about 5x more expensive (Fig 16c: unikernel at ~1/5th). *)
  let ratio = lwip /. linux in
  Alcotest.(check bool)
    (Printf.sprintf "lwip/linux ratio ~5 (%.2f)" ratio)
    true
    (ratio > 4. && ratio < 6.)

let test_tls_saturation_estimate () =
  (* 14 cores at 0.85 speed with Linux: ~1400 req/s (paper Fig 16c). *)
  let per_req = Tls.serve_request_cpu Tls.rsa_1024 ~stack:Stack.linux
      ~response_kb:0.5 in
  let capacity = 14. *. 0.85 /. per_req in
  Alcotest.(check bool)
    (Printf.sprintf "capacity ~1400 req/s (%.0f)" capacity)
    true
    (capacity > 1_200. && capacity < 1_700.)

let suites =
  [
    ( "net.switch",
      [
        Alcotest.test_case "learning" `Quick
          test_switch_learning_and_forwarding;
        Alcotest.test_case "broadcast" `Quick test_switch_broadcast;
        Alcotest.test_case "overload drops ARP" `Quick
          test_switch_overload_drops_arp;
        Alcotest.test_case "detach" `Quick test_switch_detach;
      ] );
    ( "net.flow",
      [
        Alcotest.test_case "undersubscribed" `Quick
          test_flow_undersubscribed;
        Alcotest.test_case "saturated fair" `Quick
          test_flow_saturated_fair;
        Alcotest.test_case "max-min" `Quick test_flow_max_min;
        Alcotest.test_case "independent cores" `Quick
          test_flow_cores_independent;
        QCheck_alcotest.to_alcotest prop_flow_never_exceeds_capacity;
      ] );
    ( "net.tls",
      [
        Alcotest.test_case "state machine" `Quick test_tls_state_machine;
        Alcotest.test_case "out of order" `Quick test_tls_out_of_order;
        Alcotest.test_case "stack cost ratio" `Quick test_tls_costs;
        Alcotest.test_case "saturation estimate" `Quick
          test_tls_saturation_estimate;
      ] );
  ]
