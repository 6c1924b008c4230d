(* Tests for the use-case workloads: firewall rule engine and capacity,
   JIT instantiation, TLS termination, the Lambda compute service, and
   the syscall dataset. *)

module Engine = Lightvm_sim.Engine
module Cpu = Lightvm_sim.Cpu
module Mode = Lightvm_toolstack.Mode
module Syscalls = Lightvm_workloads.Syscalls
module Firewall = Lightvm_workloads.Firewall
module Jit = Lightvm_workloads.Jit
module Tls_term = Lightvm_workloads.Tls_term
module Lambda = Lightvm_workloads.Lambda

(* ------------------------------------------------------------------ *)
(* Syscalls (Fig 1) *)

let test_syscalls_monotonic () =
  let rec check = function
    | a :: (b :: _ as rest) ->
        Alcotest.(check bool) "chronological" true
          (a.Syscalls.year <= b.Syscalls.year);
        Alcotest.(check bool) "non-decreasing" true
          (a.Syscalls.syscalls <= b.Syscalls.syscalls);
        check rest
    | _ -> ()
  in
  check Syscalls.data;
  let slope = Syscalls.growth_per_year () in
  Alcotest.(check bool)
    (Printf.sprintf "about 10 syscalls/year (%.1f)" slope)
    true
    (slope > 5. && slope < 15.)

(* ------------------------------------------------------------------ *)
(* Firewall rule engine *)

let pkt ?(src = 0x0b000001) ?(dst = 0x0a000001) ?(proto = `Tcp)
    ?(dport = 80) () =
  { Firewall.src_ip = src; dst_ip = dst; pkt_proto = proto;
    pkt_dport = dport }

let test_firewall_first_match () =
  let rs =
    Firewall.compile ~default:Firewall.Drop
      [
        Firewall.rule ~proto:`Tcp ~dport:(80, 80) Firewall.Allow;
        Firewall.rule ~proto:`Tcp Firewall.Drop;
        Firewall.rule ~proto:`Tcp ~dport:(443, 443) Firewall.Allow;
      ]
  in
  Alcotest.(check bool) "port 80 allowed" true
    (Firewall.eval rs (pkt ~dport:80 ()) = Firewall.Allow);
  (* 443 hits the catch-all Drop before its Allow: first match wins. *)
  Alcotest.(check bool) "first match wins" true
    (Firewall.eval rs (pkt ~dport:443 ()) = Firewall.Drop);
  Alcotest.(check bool) "default" true
    (Firewall.eval rs (pkt ~proto:`Udp ()) = Firewall.Drop)

let test_firewall_prefixes () =
  let rs =
    Firewall.compile ~default:Firewall.Drop
      [ Firewall.rule ~src:(0x0a000000, 8) Firewall.Allow ]
  in
  Alcotest.(check bool) "inside /8" true
    (Firewall.eval rs (pkt ~src:0x0a123456 ()) = Firewall.Allow);
  Alcotest.(check bool) "outside /8" true
    (Firewall.eval rs (pkt ~src:0x0b000000 ()) = Firewall.Drop)

let test_personal_ruleset () =
  let user = 42 in
  let rs = Firewall.personal_ruleset ~user_id:user in
  let user_ip = 0x0a000000 lor user in
  Alcotest.(check bool) "outbound allowed" true
    (Firewall.eval rs (pkt ~src:user_ip ~dst:0x08080808 ())
    = Firewall.Allow);
  Alcotest.(check bool) "inbound web allowed" true
    (Firewall.eval rs (pkt ~dst:user_ip ~dport:443 ()) = Firewall.Allow);
  Alcotest.(check bool) "inbound ssh dropped" true
    (Firewall.eval rs (pkt ~dst:user_ip ~dport:22 ()) = Firewall.Drop);
  Alcotest.(check bool) "icmp allowed" true
    (Firewall.eval rs (pkt ~dst:user_ip ~proto:`Icmp ()) = Firewall.Allow)

let prop_firewall_default_when_no_match =
  QCheck.Test.make ~name:"empty ruleset always hits the default"
    ~count:100
    QCheck.(pair (int_bound 0xffffff) (int_bound 65535))
    (fun (ip, port) ->
      let rs = Firewall.compile ~default:Firewall.Allow [] in
      Firewall.eval rs (pkt ~src:ip ~dst:ip ~dport:port ())
      = Firewall.Allow)

(* ------------------------------------------------------------------ *)
(* Firewall capacity (Fig 16a) *)

let test_firewall_capacity_shape () =
  match Firewall.capacity ~users:[ 100; 250; 1000 ] () with
  | [ small; knee; big ] ->
      (* Linear region: everyone gets their 10 Mbps. *)
      Alcotest.(check (float 0.1)) "100 users linear" 1.0
        small.Firewall.total_gbps;
      Alcotest.(check (float 0.5)) "knee at ~250 users" 2.5
        knee.Firewall.total_gbps;
      (* Saturated: total keeps growing but per-user drops to ~4-5. *)
      Alcotest.(check bool)
        (Printf.sprintf "1000 users total %.2f in [3.5, 5.5]"
           big.Firewall.total_gbps)
        true
        (big.Firewall.total_gbps > 3.5 && big.Firewall.total_gbps < 5.5);
      Alcotest.(check bool)
        (Printf.sprintf "per-user %.1f Mbps in [3.5, 5.5]"
           big.Firewall.per_user_mbps)
        true
        (big.Firewall.per_user_mbps > 3.5
        && big.Firewall.per_user_mbps < 5.5);
      (* RTT: negligible at low load, ~60 ms at 1000 users. *)
      Alcotest.(check bool)
        (Printf.sprintf "low RTT %.1f" small.Firewall.rtt_ms)
        true (small.Firewall.rtt_ms < 5.);
      Alcotest.(check bool)
        (Printf.sprintf "RTT at 1000 %.0f in [40, 90]" big.Firewall.rtt_ms)
        true
        (big.Firewall.rtt_ms > 40. && big.Firewall.rtt_ms < 90.)
  | _ -> Alcotest.fail "wrong number of points"

(* ------------------------------------------------------------------ *)
(* JIT instantiation (Fig 16b) *)

let test_jit_normal_load () =
  let result =
    Jit.run { Jit.default_config with Jit.clients = 40 }
  in
  Alcotest.(check int) "all clients measured" 40
    (List.length result.Jit.rtts);
  Alcotest.(check int) "one VM per client" 40 result.Jit.vms_booted;
  let median = Percentile.linear result.Jit.rtts 50. in
  (* Paper: 13 ms median at 25 ms inter-arrivals. *)
  Alcotest.(check bool)
    (Printf.sprintf "median %.1f ms in [5, 25]" (median *. 1e3))
    true
    (median > 0.005 && median < 0.025);
  Alcotest.(check int) "no timeouts" 0 result.Jit.timeouts

let test_jit_overload_tail () =
  (* Fast arrivals + small bridge: ARP drops, timeouts, long tail. *)
  let result =
    Jit.run
      {
        Jit.default_config with
        Jit.arrival_interval = 0.010;
        clients = 250;
        bridge_pps = 6_000.;
      }
  in
  Alcotest.(check bool)
    (Printf.sprintf "ARP drops happened (%d)" result.Jit.arp_drops)
    true
    (result.Jit.arp_drops > 0);
  Alcotest.(check bool)
    (Printf.sprintf "timeouts happened (%d)" result.Jit.timeouts)
    true
    (result.Jit.timeouts > 0);
  let p99 = Percentile.linear result.Jit.rtts 99. in
  Alcotest.(check bool)
    (Printf.sprintf "long tail (p99 %.2f s)" p99)
    true (p99 >= 1.0)

let test_jit_teardown () =
  let result =
    Jit.run
      { Jit.default_config with Jit.clients = 20; idle_teardown = 1.0 }
  in
  Alcotest.(check bool)
    (Printf.sprintf "idle VMs reaped (%d)" result.Jit.torn_down)
    true
    (result.Jit.torn_down > 0)

(* ------------------------------------------------------------------ *)
(* TLS termination (Fig 16c) *)

let test_tls_throughput_shape () =
  let bare n = Tls_term.throughput Tls_term.Bare_metal ~instances:n in
  let uni n = Tls_term.throughput Tls_term.Unikernel ~instances:n in
  (* Rises while cores fill, then flat. *)
  Alcotest.(check bool) "2 instances ~2x of 1" true
    (bare 2 > 1.9 *. bare 1 && bare 2 < 2.1 *. bare 1);
  Alcotest.(check (float 1e-6)) "flat beyond core count" (bare 100)
    (bare 1000);
  (* Paper's levels: ~1400 req/s for bare metal/Tinyx; unikernel ~1/5. *)
  Alcotest.(check bool)
    (Printf.sprintf "bare saturation %.0f in [1200, 1700]" (bare 1000))
    true
    (bare 1000 > 1200. && bare 1000 < 1700.);
  let ratio = bare 1000 /. uni 1000 in
  Alcotest.(check bool)
    (Printf.sprintf "unikernel ~5x slower (%.1f)" ratio)
    true
    (ratio > 4. && ratio < 6.);
  let tinyx = Tls_term.throughput Tls_term.Tinyx_vm ~instances:1000 in
  Alcotest.(check bool) "tinyx close to bare metal" true
    (tinyx > 0.9 *. bare 1000)

(* ------------------------------------------------------------------ *)
(* Lambda compute service (Figs 17/18) *)

let lambda_config mode requests =
  { (Lambda.default_config mode) with Lambda.requests }

let test_lambda_underloaded () =
  (* Slow arrivals: no queueing, service ~ compute time + overheads. *)
  let result =
    Lambda.run
      { (lambda_config Mode.lightvm 20) with Lambda.inter_arrival = 1.0 }
  in
  Alcotest.(check int) "no failures" 0 result.Lambda.failures;
  Alcotest.(check bool) "outputs verified" true result.Lambda.outputs_ok;
  let times = List.map snd result.Lambda.service_times in
  let mean =
    List.fold_left ( +. ) 0. times /. float_of_int (List.length times)
  in
  Alcotest.(check bool)
    (Printf.sprintf "service ~0.8s each (%.2f s)" mean)
    true
    (mean > 0.75 && mean < 1.1)

let test_lambda_overloaded_backlog () =
  let result = Lambda.run (lambda_config Mode.lightvm 150) in
  let last_quarter =
    List.filter (fun (i, _) -> i >= 110) result.Lambda.service_times
    |> List.map snd
  in
  let early =
    List.filter (fun (i, _) -> i < 20) result.Lambda.service_times
    |> List.map snd
  in
  Alcotest.(check bool) "backlog grows service times" true
    (Percentile.linear last_quarter 50. > 2. *. Percentile.linear early 50.);
  let peak =
    List.fold_left (fun acc (_, c) -> max acc c) 0 result.Lambda.concurrency
  in
  Alcotest.(check bool)
    (Printf.sprintf "VMs back up (%d concurrent)" peak)
    true (peak > 10)

let test_lambda_xs_worse_than_lightvm () =
  let xs = Lambda.run (lambda_config Mode.chaos_xs 150) in
  let lightvm = Lambda.run (lambda_config Mode.lightvm 150) in
  let total r =
    List.fold_left (fun acc (_, t) -> acc +. t) 0. r.Lambda.service_times
  in
  Alcotest.(check bool)
    (Printf.sprintf "XS slower in aggregate (%.0f vs %.0f s)" (total xs)
       (total lightvm))
    true
    (total xs > total lightvm)

let test_lambda_program_really_runs () =
  (* A bad program must surface as failed outputs. *)
  match
    Lambda.run
      { (lambda_config Mode.lightvm 2) with
        Lambda.program = "print(1 / 0)" }
  with
  | _ -> Alcotest.fail "broken program accepted"
  | exception Invalid_argument _ -> ()

let suites =
  [
    ( "workloads.syscalls",
      [ Alcotest.test_case "monotonic" `Quick test_syscalls_monotonic ] );
    ( "workloads.firewall",
      [
        Alcotest.test_case "first match" `Quick test_firewall_first_match;
        Alcotest.test_case "prefixes" `Quick test_firewall_prefixes;
        Alcotest.test_case "personal ruleset" `Quick test_personal_ruleset;
        QCheck_alcotest.to_alcotest prop_firewall_default_when_no_match;
        Alcotest.test_case "capacity shape (Fig 16a)" `Quick
          test_firewall_capacity_shape;
      ] );
    ( "workloads.jit",
      [
        Alcotest.test_case "normal load (Fig 16b)" `Quick
          test_jit_normal_load;
        Alcotest.test_case "overload tail" `Quick test_jit_overload_tail;
        Alcotest.test_case "idle teardown" `Quick test_jit_teardown;
      ] );
    ( "workloads.tls",
      [
        Alcotest.test_case "throughput shape (Fig 16c)" `Quick
          test_tls_throughput_shape;
      ] );
    ( "workloads.lambda",
      [
        Alcotest.test_case "underloaded" `Quick test_lambda_underloaded;
        Alcotest.test_case "overload backlog (Fig 17)" `Quick
          test_lambda_overloaded_backlog;
        Alcotest.test_case "XS vs LightVM" `Quick
          test_lambda_xs_worse_than_lightvm;
        Alcotest.test_case "program really runs" `Quick
          test_lambda_program_really_runs;
      ] );
  ]
