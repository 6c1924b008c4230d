(* Tests for the hypervisor substrate: frames, event channels, grant
   tables, noxs device pages, and the Xen facade. *)

module Engine = Lightvm_sim.Engine
module Frames = Lightvm_hv.Frames
module Evtchn = Lightvm_hv.Evtchn
module Gnttab = Lightvm_hv.Gnttab
module Devpage = Lightvm_hv.Devpage
module Domain = Lightvm_hv.Domain
module Params = Lightvm_hv.Params
module Xen = Lightvm_hv.Xen

let in_sim f () = ignore (Engine.run f)

(* ------------------------------------------------------------------ *)
(* Frames *)

let test_frames_alloc_free () =
  let f = Frames.create ~total_kb:1024 in
  Alcotest.(check int) "total" 1024 (Frames.total_kb f);
  Alcotest.(check bool) "alloc ok" true (Frames.alloc f ~owner:1 ~kb:512 = Ok ());
  Alcotest.(check int) "used" 512 (Frames.used_kb f);
  Alcotest.(check int) "owned" 512 (Frames.owned_kb f ~owner:1);
  Alcotest.(check bool) "exhaustion" true
    (Frames.alloc f ~owner:2 ~kb:600 = Error Frames.ENOMEM);
  Frames.free f ~owner:1 ~kb:512;
  Alcotest.(check int) "freed" 0 (Frames.used_kb f)

let test_frames_rounding () =
  let f = Frames.create ~total_kb:1024 in
  (* 1 KB rounds up to one 4 KB frame. *)
  ignore (Frames.alloc f ~owner:1 ~kb:1);
  Alcotest.(check int) "rounded to frame" 4 (Frames.used_kb f)

let test_frames_free_all () =
  let f = Frames.create ~total_kb:4096 in
  ignore (Frames.alloc f ~owner:3 ~kb:100);
  ignore (Frames.alloc f ~owner:3 ~kb:200);
  ignore (Frames.alloc f ~owner:4 ~kb:400);
  let released = Frames.free_all f ~owner:3 in
  Alcotest.(check int) "released" 300 released;
  Alcotest.(check int) "other untouched" 400 (Frames.owned_kb f ~owner:4)

let test_frames_over_free () =
  let f = Frames.create ~total_kb:1024 in
  ignore (Frames.alloc f ~owner:1 ~kb:8);
  match Frames.free f ~owner:1 ~kb:64 with
  | () -> Alcotest.fail "over-free accepted"
  | exception Invalid_argument _ -> ()

let prop_frames_conservation =
  QCheck.Test.make ~name:"frame allocator conserves memory" ~count:100
    QCheck.(list (pair (int_range 1 5) (int_range 1 64)))
    (fun script ->
      let f = Frames.create ~total_kb:4096 in
      List.iter
        (fun (owner, kb) -> ignore (Frames.alloc f ~owner ~kb:(kb * 4)))
        script;
      let by_owner =
        List.fold_left (fun acc (_, kb) -> acc + kb) 0 (Frames.owners f)
      in
      by_owner = Frames.used_kb f
      && Frames.used_kb f + Frames.free_kb f = Frames.total_kb f)

(* ------------------------------------------------------------------ *)
(* Event channels *)

let test_evtchn_lifecycle =
  in_sim (fun () ->
      let e = Evtchn.create () in
      let backend_port = Evtchn.alloc_unbound e ~domid:0 ~remote:5 in
      let guest_port =
        match
          Evtchn.bind_interdomain e ~domid:5 ~remote:0
            ~remote_port:backend_port
        with
        | Ok p -> p
        | Error _ -> Alcotest.fail "bind failed"
      in
      let guest_got = ref 0 and backend_got = ref 0 in
      Evtchn.set_handler e ~domid:5 ~port:guest_port (fun () ->
          incr guest_got);
      Evtchn.set_handler e ~domid:0 ~port:backend_port (fun () ->
          incr backend_got);
      (* Backend notifies guest. *)
      Alcotest.(check bool) "notify ok" true
        (Evtchn.notify e ~domid:0 ~port:backend_port = Ok ());
      (* Guest notifies backend twice. *)
      ignore (Evtchn.notify e ~domid:5 ~port:guest_port);
      ignore (Evtchn.notify e ~domid:5 ~port:guest_port);
      Engine.sleep 0.001;
      Alcotest.(check int) "guest handler ran" 1 !guest_got;
      Alcotest.(check int) "backend handler ran" 2 !backend_got)

let test_evtchn_wrong_domain =
  in_sim (fun () ->
      let e = Evtchn.create () in
      let port = Evtchn.alloc_unbound e ~domid:0 ~remote:5 in
      match Evtchn.bind_interdomain e ~domid:6 ~remote:0 ~remote_port:port with
      | Error Evtchn.Wrong_domain -> ()
      | _ -> Alcotest.fail "wrong domain bound")

let test_evtchn_double_bind =
  in_sim (fun () ->
      let e = Evtchn.create () in
      let port = Evtchn.alloc_unbound e ~domid:0 ~remote:5 in
      ignore (Evtchn.bind_interdomain e ~domid:5 ~remote:0 ~remote_port:port);
      match Evtchn.bind_interdomain e ~domid:5 ~remote:0 ~remote_port:port with
      | Error Evtchn.Already_bound -> ()
      | _ -> Alcotest.fail "double bind accepted")

let test_evtchn_close_all =
  in_sim (fun () ->
      let e = Evtchn.create () in
      let p1 = Evtchn.alloc_unbound e ~domid:3 ~remote:0 in
      let _p2 = Evtchn.alloc_unbound e ~domid:3 ~remote:0 in
      ignore (Evtchn.bind_interdomain e ~domid:0 ~remote:3 ~remote_port:p1);
      Alcotest.(check int) "closed two" 2 (Evtchn.close_all e ~domid:3);
      Alcotest.(check (list int)) "none left" [] (Evtchn.ports_of e ~domid:3);
      (* Peer's port survives but is unbound. *)
      match Evtchn.ports_of e ~domid:0 with
      | [ p ] -> (
          match Evtchn.notify e ~domid:0 ~port:p with
          | Error Evtchn.Not_bound -> ()
          | _ -> Alcotest.fail "stale binding")
      | _ -> Alcotest.fail "peer port lost")

(* ------------------------------------------------------------------ *)
(* Grant tables *)

let test_gnttab_flow () =
  let g = Gnttab.create () in
  let gref = Gnttab.grant_access g ~owner:7 ~grantee:0 ~frame:1234 in
  (match Gnttab.map g ~grantee:0 ~owner:7 gref with
  | Ok frame -> Alcotest.(check int) "mapped frame" 1234 frame
  | Error _ -> Alcotest.fail "map failed");
  Alcotest.(check bool) "end while mapped refused" true
    (Gnttab.end_access g ~owner:7 gref = Error Gnttab.Still_mapped);
  Alcotest.(check bool) "unmap" true
    (Gnttab.unmap g ~grantee:0 ~owner:7 gref = Ok ());
  Alcotest.(check bool) "end after unmap" true
    (Gnttab.end_access g ~owner:7 gref = Ok ());
  Alcotest.(check bool) "ref retired" true
    (Gnttab.map g ~grantee:0 ~owner:7 gref = Error Gnttab.Invalid_ref)

let test_gnttab_wrong_grantee () =
  let g = Gnttab.create () in
  let gref = Gnttab.grant_access g ~owner:7 ~grantee:0 ~frame:1 in
  Alcotest.(check bool) "wrong grantee" true
    (Gnttab.map g ~grantee:9 ~owner:7 gref = Error Gnttab.Wrong_domain)

let test_gnttab_refcount () =
  let g = Gnttab.create () in
  let gref = Gnttab.grant_access g ~owner:7 ~grantee:0 ~frame:1 in
  ignore (Gnttab.map g ~grantee:0 ~owner:7 gref);
  ignore (Gnttab.map g ~grantee:0 ~owner:7 gref);
  Alcotest.(check int) "two mappings" 2 (Gnttab.mapped_count g ~owner:7 gref);
  ignore (Gnttab.unmap g ~grantee:0 ~owner:7 gref);
  Alcotest.(check int) "one left" 1 (Gnttab.mapped_count g ~owner:7 gref);
  Alcotest.(check bool) "still mapped" true
    (Gnttab.end_access g ~owner:7 gref = Error Gnttab.Still_mapped)

(* ------------------------------------------------------------------ *)
(* Device pages *)

let entry devid =
  {
    Devpage.kind = Devpage.Vif;
    devid;
    backend_domid = 0;
    grant_ref = 42;
    evtchn_port = 3;
  }

let test_devpage_flow () =
  let d = Devpage.create () in
  Devpage.setup d ~domid:4;
  Alcotest.(check bool) "dom0 writes" true
    (Devpage.write_entry d ~caller:0 ~domid:4 (entry 0) = Ok ());
  (match Devpage.read d ~caller:4 ~domid:4 with
  | Ok [ e ] -> Alcotest.(check int) "devid" 0 e.Devpage.devid
  | _ -> Alcotest.fail "guest read failed");
  Alcotest.(check bool) "guest cannot write" true
    (Devpage.write_entry d ~caller:4 ~domid:4 (entry 1)
    = Error Devpage.Access_denied);
  Alcotest.(check bool) "stranger cannot read" true
    (Devpage.read d ~caller:9 ~domid:4 = Error Devpage.Access_denied);
  Alcotest.(check bool) "find" true
    (match
       Devpage.find d ~caller:4 ~domid:4 ~kind:Devpage.Vif ~devid:0
     with
    | Ok e -> e.Devpage.grant_ref = 42
    | Error _ -> false)

let test_devpage_replace_and_remove () =
  let d = Devpage.create () in
  Devpage.setup d ~domid:4;
  ignore (Devpage.write_entry d ~caller:0 ~domid:4 (entry 0));
  ignore
    (Devpage.write_entry d ~caller:0 ~domid:4
       { (entry 0) with Devpage.grant_ref = 99 });
  (match Devpage.read d ~caller:0 ~domid:4 with
  | Ok [ e ] -> Alcotest.(check int) "replaced" 99 e.Devpage.grant_ref
  | _ -> Alcotest.fail "replace created duplicate");
  Devpage.teardown d ~domid:4;
  Alcotest.(check bool) "teardown removes the page" true
    (Devpage.read d ~caller:0 ~domid:4 = Error Devpage.No_page)

let test_devpage_no_page () =
  let d = Devpage.create () in
  Alcotest.(check bool) "no page" true
    (Devpage.write_entry d ~caller:0 ~domid:9 (entry 0)
    = Error Devpage.No_page)

(* ------------------------------------------------------------------ *)
(* Xen facade *)

let test_xen_boot =
  in_sim (fun () ->
      let xen = Xen.boot () in
      Alcotest.(check int) "one domain (Dom0)" 1
        (List.length (Xen.domains xen));
      Alcotest.(check int) "no guests" 0 (Xen.guest_count xen);
      let core domid =
        match Xen.domain xen ~domid with
        | Some dom -> Domain.core dom
        | None -> Alcotest.failf "no domain %d" domid
      in
      Alcotest.(check int) "dom0 core" 0 (core 0);
      let guests =
        List.init 4 (fun i ->
            match
              Xen.create_domain xen ~name:(Printf.sprintf "g%d" i) ~vcpus:1
                ~mem_mb:8.
            with
            | Ok dom -> Domain.core dom
            | Error _ -> Alcotest.fail "create_domain")
      in
      Alcotest.(check (list int)) "guest cores, round robin" [ 1; 2; 3; 1 ]
        guests;
      Alcotest.(check (list int))
        "guest_core is the placement" guests
        (List.init 4 (Xen.guest_core xen)))

let test_xen_domain_lifecycle =
  in_sim (fun () ->
      let xen = Xen.boot () in
      let dom =
        match Xen.create_domain xen ~name:"g1" ~vcpus:1 ~mem_mb:8. with
        | Ok d -> d
        | Error _ -> Alcotest.fail "create failed"
      in
      let domid = Domain.domid dom in
      Alcotest.(check bool) "starts paused" true
        (Domain.state dom = Domain.Paused);
      Alcotest.(check bool) "populate" true
        (Xen.populate_memory xen ~domid = Ok ());
      Alcotest.(check bool) "load image" true
        (Xen.load_image xen ~domid ~size_mb:0.5 = Ok ());
      Alcotest.(check bool) "unpause" true (Xen.unpause xen ~domid = Ok ());
      Alcotest.(check bool) "running" true (Domain.is_running dom);
      (* Memory: 8 MB RAM plus hypervisor overhead. *)
      let mem = Xen.domain_mem_kb xen ~domid in
      Alcotest.(check bool)
        (Printf.sprintf "memory accounted (%d kb)" mem)
        true
        (mem >= 8 * 1024 && mem < 9 * 1024);
      Alcotest.(check bool) "destroy" true (Xen.destroy xen ~domid = Ok ());
      Alcotest.(check int) "memory released" 0
        (Xen.domain_mem_kb xen ~domid);
      Alcotest.(check bool) "gone" true (Xen.domain xen ~domid = None))

let test_xen_round_robin_cores =
  in_sim (fun () ->
      let xen = Xen.boot () in
      let cores =
        List.init 5 (fun i ->
            match
              Xen.create_domain xen
                ~name:(Printf.sprintf "g%d" i)
                ~vcpus:1 ~mem_mb:4.
            with
            | Ok d -> Domain.core d
            | Error _ -> Alcotest.fail "create failed")
      in
      (* 3 guest cores (1,2,3) assigned round-robin. *)
      Alcotest.(check (list int)) "round robin" [ 1; 2; 3; 1; 2 ] cores)

(* Xen.guest_mem_kb reads the frame accounting; it must equal the sum
   over live guest domains through creation, populate (or not) and
   destroy. *)
let test_xen_guest_mem_kb =
  in_sim (fun () ->
      let xen = Xen.boot () in
      let check what =
        let by_domain =
          List.fold_left
            (fun acc d ->
              let domid = Domain.domid d in
              if domid = 0 then acc else acc + Xen.domain_mem_kb xen ~domid)
            0 (Xen.domains xen)
        in
        Alcotest.(check int) what by_domain (Xen.guest_mem_kb xen)
      in
      check "no guests";
      let domids =
        List.init 4 (fun i ->
            match
              Xen.create_domain xen
                ~name:(Printf.sprintf "m%d" i)
                ~vcpus:1
                ~mem_mb:(float_of_int (8 * (i + 1)))
            with
            | Ok d -> Domain.domid d
            | Error _ -> Alcotest.fail "create failed")
      in
      check "created, unpopulated";
      List.iteri
        (fun i domid ->
          if i <> 2 then ignore (Xen.populate_memory xen ~domid))
        domids;
      check "three populated";
      ignore (Xen.destroy xen ~domid:(List.nth domids 1));
      check "one destroyed";
      Alcotest.(check bool) "guests hold memory" true
        (Xen.guest_mem_kb xen > 8 * 1024))

let test_xen_out_of_memory =
  in_sim (fun () ->
      (* Tiny host: 4.5 GB total, Dom0 4 GB, Xen 128 MB. *)
      let platform = { Params.xeon_e5_1630 with Params.ram_mb = 4608 } in
      let xen = Xen.boot ~platform () in
      let rec fill n =
        match Xen.create_domain xen ~name:(Printf.sprintf "f%d" n) ~vcpus:1
                ~mem_mb:64. with
        | Error Xen.ENOMEM -> n
        | Error _ -> Alcotest.fail "unexpected error"
        | Ok d -> (
            match Xen.populate_memory xen ~domid:(Domain.domid d) with
            | Ok () -> fill (n + 1)
            | Error Xen.ENOMEM -> n
            | Error _ -> Alcotest.fail "unexpected populate error")
      in
      let booted = fill 0 in
      (* ~384 MB free / 64 MB -> around 5-6 guests. *)
      Alcotest.(check bool)
        (Printf.sprintf "filled host with %d guests" booted)
        true
        (booted >= 4 && booted <= 7))

let test_xen_load_image_linear =
  in_sim (fun () ->
      let xen = Xen.boot () in
      let dom =
        match Xen.create_domain xen ~name:"t" ~vcpus:1 ~mem_mb:64. with
        | Ok d -> d
        | Error _ -> Alcotest.fail "create failed"
      in
      let domid = Domain.domid dom in
      let timed size_mb =
        let t0 = Engine.now () in
        ignore (Xen.load_image xen ~domid ~size_mb);
        Engine.now () -. t0
      in
      let t_small = timed 1. in
      let t_big = timed 100. in
      let ratio = t_big /. t_small in
      Alcotest.(check bool)
        (Printf.sprintf "image load linear in size (ratio %.1f)" ratio)
        true
        (ratio > 50. && ratio < 150.))

let test_xen_hypercall_counter =
  in_sim (fun () ->
      let xen = Xen.boot () in
      let before = Xen.hypercalls xen in
      ignore (Xen.create_domain xen ~name:"h" ~vcpus:1 ~mem_mb:4.);
      Alcotest.(check bool) "counted" true (Xen.hypercalls xen > before))

let test_xen_destroy_dom0_rejected =
  in_sim (fun () ->
      let xen = Xen.boot () in
      Alcotest.(check bool) "dom0 protected" true
        (Xen.destroy xen ~domid:0 = Error Xen.EINVAL))

(* ------------------------------------------------------------------ *)
(* The per-domain index against the tables it replaced *)

(* Event channels and grants keep each domain's entries in a per-domain
   index, and a domain's death visits only its own entries and the peer
   entries that name it ([Evtchn_reference] and [Gnttab_reference] fold
   whole tables). Random sequences over dom0 and 2-5 guests of every
   entry point, including the teardown [Xen.destroy] runs ([close_all],
   [close_peers_of], [release_domain]), run on both models: every
   result, each table's count, every domain's ports and every grant's
   mapping count after each step, and the handlers notifications ran,
   must match. *)

type hv_op =
  | Alloc_unbound of int * int
  | Bind of int * int * int
  | Set_handler of int * int
  | Notify of int * int
  | Close of int * int
  | Grant of int * int
  | Map of int * int * int
  | Unmap of int * int * int
  | End_access of int * int
  | Destroy of int

let max_port = 7
let grefs = [ 8; 9; 10; 11; 12 ]

module type HV_MODEL = sig
  module E : sig
    type t
    type error

    val create : unit -> t
    val alloc_unbound : t -> domid:int -> remote:int -> int

    val bind_interdomain :
      t -> domid:int -> remote:int -> remote_port:int -> (int, error) result

    val set_handler : t -> domid:int -> port:int -> (unit -> unit) -> unit
    val notify : t -> domid:int -> port:int -> (unit, error) result
    val close : t -> domid:int -> port:int -> (unit, error) result
    val close_all : t -> domid:int -> int
    val close_peers_of : t -> domid:int -> int
    val ports_of : t -> domid:int -> int list
    val count : t -> int
  end

  module G : sig
    type t
    type error

    val create : unit -> t
    val grant_access : t -> owner:int -> grantee:int -> frame:int -> int
    val map : t -> grantee:int -> owner:int -> int -> (int, error) result
    val unmap : t -> grantee:int -> owner:int -> int -> (unit, error) result
    val end_access : t -> owner:int -> int -> (unit, error) result
    val release_domain : t -> domid:int -> int
    val mapped_count : t -> owner:int -> int -> int
    val count : t -> int
  end

  val evtchn_error : E.error -> string
  val gnttab_error : G.error -> string
end

module Hv_run (M : HV_MODEL) = struct
  let log ndoms ops =
    let out = ref [] in
    let say s = out := s :: !out in
    let result ok err = function
      | Ok v -> "ok " ^ ok v
      | Error e -> "error " ^ err e
    in
    ignore
      (Engine.run (fun () ->
           let e = M.E.create () and g = M.G.create () in
           List.iteri
             (fun step op ->
               (match op with
               | Alloc_unbound (d, r) ->
                   say (string_of_int (M.E.alloc_unbound e ~domid:d ~remote:r))
               | Bind (d, r, p) ->
                   say
                     (result string_of_int M.evtchn_error
                        (M.E.bind_interdomain e ~domid:d ~remote:r
                           ~remote_port:p))
               | Set_handler (d, p) -> (
                   match
                     M.E.set_handler e ~domid:d ~port:p (fun () ->
                         say (Printf.sprintf "handler %d of step %d" d step))
                   with
                   | () -> say "set"
                   | exception Invalid_argument _ -> say "no such port")
               | Notify (d, p) ->
                   say
                     (result (fun () -> "") M.evtchn_error
                        (M.E.notify e ~domid:d ~port:p))
               | Close (d, p) ->
                   say
                     (result (fun () -> "") M.evtchn_error
                        (M.E.close e ~domid:d ~port:p))
               | Grant (o, r) ->
                   say
                     (string_of_int
                        (M.G.grant_access g ~owner:o ~grantee:r
                           ~frame:(1000 + step)))
               | Map (r, o, gref) ->
                   say
                     (result string_of_int M.gnttab_error
                        (M.G.map g ~grantee:r ~owner:o gref))
               | Unmap (r, o, gref) ->
                   say
                     (result (fun () -> "") M.gnttab_error
                        (M.G.unmap g ~grantee:r ~owner:o gref))
               | End_access (o, gref) ->
                   say
                     (result (fun () -> "") M.gnttab_error
                        (M.G.end_access g ~owner:o gref))
               | Destroy d ->
                   let own = M.E.close_all e ~domid:d in
                   let peers = M.E.close_peers_of e ~domid:d in
                   let grants = M.G.release_domain g ~domid:d in
                   say (Printf.sprintf "destroy %d %d %d" own peers grants));
               (* Let the handlers a notification spawned run. *)
               Engine.sleep 0.001;
               say
                 (Printf.sprintf "counts %d %d" (M.E.count e) (M.G.count g));
               for d = 0 to ndoms - 1 do
                 say
                   (String.concat ","
                      (List.map string_of_int (M.E.ports_of e ~domid:d)));
                 List.iter
                   (fun gref ->
                     say (string_of_int (M.G.mapped_count g ~owner:d gref)))
                   grefs
               done)
             ops));
    List.rev !out
end

module New_hv = Hv_run (struct
  module E = Evtchn
  module G = Gnttab

  let evtchn_error = function
    | Evtchn.Invalid_port -> "invalid port"
    | Evtchn.Wrong_domain -> "wrong domain"
    | Evtchn.Already_bound -> "already bound"
    | Evtchn.Not_bound -> "not bound"

  let gnttab_error = function
    | Gnttab.Invalid_ref -> "invalid ref"
    | Gnttab.Wrong_domain -> "wrong domain"
    | Gnttab.Still_mapped -> "still mapped"
    | Gnttab.Not_mapped -> "not mapped"
end)

module Ref_hv = Hv_run (struct
  module E = Evtchn_reference
  module G = Gnttab_reference

  let evtchn_error = function
    | Evtchn_reference.Invalid_port -> "invalid port"
    | Evtchn_reference.Wrong_domain -> "wrong domain"
    | Evtchn_reference.Already_bound -> "already bound"
    | Evtchn_reference.Not_bound -> "not bound"

  let gnttab_error = function
    | Gnttab_reference.Invalid_ref -> "invalid ref"
    | Gnttab_reference.Wrong_domain -> "wrong domain"
    | Gnttab_reference.Still_mapped -> "still mapped"
    | Gnttab_reference.Not_mapped -> "not mapped"
end)

let gen_hv_case =
  let open QCheck.Gen in
  let* guests = int_range 2 5 in
  let ndoms = guests + 1 in
  (* Mostly guest <-> dom0 pairs, as split drivers make them; sometimes
     two guests, or a domain and itself. *)
  let dom = int_bound guests in
  let pair =
    frequency
      [
        (3, map (fun g -> (0, g)) (int_range 1 guests));
        (3, map (fun g -> (g, 0)) (int_range 1 guests));
        (2, pair dom dom);
      ]
  in
  let port = int_range 1 max_port in
  let gref = oneofl grefs in
  let op =
    frequency
      [
        (4, map (fun (d, r) -> Alloc_unbound (d, r)) pair);
        (4, map2 (fun (d, r) p -> Bind (d, r, p)) pair port);
        (2, map2 (fun d p -> Set_handler (d, p)) dom port);
        (3, map2 (fun d p -> Notify (d, p)) dom port);
        (2, map2 (fun d p -> Close (d, p)) dom port);
        (3, map (fun (o, r) -> Grant (o, r)) pair);
        (3, map2 (fun (r, o) g -> Map (r, o, g)) pair gref);
        (2, map2 (fun (r, o) g -> Unmap (r, o, g)) pair gref);
        (2, map2 (fun o g -> End_access (o, g)) dom gref);
        (1, map (fun d -> Destroy d) dom);
      ]
  in
  let* ops = list_size (int_range 1 60) op in
  return (ndoms, ops)

let prop_hv_index_matches_reference =
  QCheck.Test.make ~name:"per-domain index = reference tables" ~count:300
    (QCheck.make gen_hv_case)
    (fun (ndoms, ops) -> New_hv.log ndoms ops = Ref_hv.log ndoms ops)

let suites =
  [
    ( "hv.frames",
      [
        Alcotest.test_case "alloc/free" `Quick test_frames_alloc_free;
        Alcotest.test_case "rounding" `Quick test_frames_rounding;
        Alcotest.test_case "free_all" `Quick test_frames_free_all;
        Alcotest.test_case "over-free" `Quick test_frames_over_free;
        QCheck_alcotest.to_alcotest prop_frames_conservation;
      ] );
    ( "hv.evtchn",
      [
        Alcotest.test_case "lifecycle" `Quick test_evtchn_lifecycle;
        Alcotest.test_case "wrong domain" `Quick test_evtchn_wrong_domain;
        Alcotest.test_case "double bind" `Quick test_evtchn_double_bind;
        Alcotest.test_case "close all" `Quick test_evtchn_close_all;
        QCheck_alcotest.to_alcotest prop_hv_index_matches_reference;
      ] );
    ( "hv.gnttab",
      [
        Alcotest.test_case "grant/map/unmap" `Quick test_gnttab_flow;
        Alcotest.test_case "wrong grantee" `Quick test_gnttab_wrong_grantee;
        Alcotest.test_case "refcount" `Quick test_gnttab_refcount;
      ] );
    ( "hv.devpage",
      [
        Alcotest.test_case "flow" `Quick test_devpage_flow;
        Alcotest.test_case "replace/remove" `Quick
          test_devpage_replace_and_remove;
        Alcotest.test_case "no page" `Quick test_devpage_no_page;
      ] );
    ( "hv.xen",
      [
        Alcotest.test_case "boot" `Quick test_xen_boot;
        Alcotest.test_case "domain lifecycle" `Quick
          test_xen_domain_lifecycle;
        Alcotest.test_case "round-robin cores" `Quick
          test_xen_round_robin_cores;
        Alcotest.test_case "guest memory = per-domain sum" `Quick
          test_xen_guest_mem_kb;
        Alcotest.test_case "out of memory" `Quick test_xen_out_of_memory;
        Alcotest.test_case "image load linear" `Quick
          test_xen_load_image_linear;
        Alcotest.test_case "hypercall counter" `Quick
          test_xen_hypercall_counter;
        Alcotest.test_case "destroy dom0 rejected" `Quick
          test_xen_destroy_dom0_rejected;
      ] );
  ]
