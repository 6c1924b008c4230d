(* Tests for the XenStore: paths, permissions, store semantics,
   transactions, watches, wire protocol, logging and the server. *)

module Engine = Lightvm_sim.Engine
module Xs_path = Lightvm_xenstore.Xs_path
module Xs_perms = Lightvm_xenstore.Xs_perms
module Xs_store = Lightvm_xenstore.Xs_store
module Xs_error = Lightvm_xenstore.Xs_error
module Xs_transaction = Lightvm_xenstore.Xs_transaction
module Xs_watch = Lightvm_xenstore.Xs_watch
module Xs_wire = Lightvm_xenstore.Xs_wire
module Xs_logging = Lightvm_xenstore.Xs_logging
module Xs_server = Lightvm_xenstore.Xs_server
module Xs_client = Lightvm_xenstore.Xs_client

let in_sim f () = ignore (Engine.run f)

let p = Xs_path.of_string

let err : Xs_error.t Alcotest.testable =
  Alcotest.testable Xs_error.pp ( = )

let store_res ok = Alcotest.result ok err

(* ------------------------------------------------------------------ *)
(* Paths *)

let test_path_parse () =
  let t = p "/local/domain/0/name" in
  Alcotest.(check (list string))
    "segments"
    [ "local"; "domain"; "0"; "name" ]
    (Xs_path.segments t);
  Alcotest.(check string) "round trip" "/local/domain/0/name"
    (Xs_path.to_string t);
  Alcotest.(check string) "root" "/" (Xs_path.to_string Xs_path.root);
  Alcotest.(check int) "depth" 4 (Xs_path.depth t)

let test_path_invalid () =
  let bad s =
    match Xs_path.of_string_opt s with
    | Some _ -> Alcotest.failf "accepted bad path %S" s
    | None -> ()
  in
  bad "relative/path";
  bad "";
  bad "/double//slash";
  bad "/bad char";
  bad ("/" ^ String.make 300 'a')

let test_path_trailing_slash () =
  Alcotest.(check string) "trailing slash tolerated" "/a/b"
    (Xs_path.to_string (p "/a/b/"))

let test_path_parent_basename () =
  let t = p "/a/b/c" in
  Alcotest.(check (option string))
    "parent" (Some "/a/b")
    (Option.map Xs_path.to_string (Xs_path.parent t));
  Alcotest.(check (option string)) "basename" (Some "c") (Xs_path.basename t);
  Alcotest.(check (option string))
    "root has no parent" None
    (Option.map Xs_path.to_string (Xs_path.parent Xs_path.root))

let test_path_prefix () =
  let check_prefix a b expected =
    Alcotest.(check bool)
      (Printf.sprintf "%s prefix of %s" a b)
      expected
      (Xs_path.is_prefix (p a) ~of_:(p b))
  in
  check_prefix "/a" "/a/b/c" true;
  check_prefix "/a/b/c" "/a/b/c" true;
  check_prefix "/a/b/c" "/a" false;
  check_prefix "/a/bb" "/a/b" false;
  check_prefix "/" "/anything" true

let test_path_special () =
  let s = p "@introduceDomain" in
  Alcotest.(check bool) "special" true (Xs_path.is_special s);
  Alcotest.(check bool) "not prefix of normal" false
    (Xs_path.is_prefix s ~of_:(p "/a"))

let test_path_domain () =
  Alcotest.(check string) "domain path" "/local/domain/7"
    (Xs_path.to_string (Xs_path.domain_path 7))

(* [concat] enforces the same 3,072-byte bound as [of_string]: 15
   segments of 200 bytes and a last one sized to land the whole path on
   [len] bytes. *)
let test_path_length_limit () =
  let segs len =
    List.init 15 (fun _ -> String.make 200 'a')
    @ [ String.make (len - (15 * 201) - 1) 'b' ]
  in
  let by_concat len =
    match List.fold_left Xs_path.concat Xs_path.root (segs len) with
    | path -> Some (Xs_path.to_string path)
    | exception Xs_path.Invalid _ -> None
  in
  let by_parse len =
    Option.map Xs_path.to_string
      (Xs_path.of_string_opt ("/" ^ String.concat "/" (segs len)))
  in
  Alcotest.(check (option int)) "3072 bytes built" (Some 3072)
    (Option.map String.length (by_concat 3072));
  Alcotest.(check (option string)) "3072 bytes agree" (by_parse 3072)
    (by_concat 3072);
  Alcotest.(check (option string)) "3073 bytes parse" None (by_parse 3073);
  Alcotest.(check (option string)) "3073 bytes concat" None (by_concat 3073)

let path_segs_gen =
  QCheck.Gen.(
    list_size (int_range 1 6)
      (string_size ~gen:(oneof [ char_range 'a' 'z'; char_range '0' '9' ])
         (int_range 1 8)))

(* [to_string] builds the string from the chain and [length] is kept
   beside it: both must give back what was parsed. *)
let prop_path_roundtrip =
  QCheck.Test.make ~name:"path to_string/of_string round-trips" ~count:200
    (QCheck.make QCheck.Gen.(map (fun segs -> "/" ^ String.concat "/" segs)
       path_segs_gen))
    (fun s ->
      let path = Xs_path.of_string s in
      Xs_path.to_string path = s
      && Xs_path.length path = String.length s
      && Xs_path.equal (Xs_path.of_string (Xs_path.to_string path)) path)

(* Segments that are valid, empty, illegal (a character outside the
   segment alphabet), oversized (257 bytes) or long (up to 256), and
   runs of 10 to 17 long ones, whose totals straddle the 3,072-byte
   path limit. The last segment is never empty: the parser tolerates
   one trailing slash. *)
let legal_char = QCheck.Gen.oneofl (List.of_seq (String.to_seq "azAZ09_-.:@+"))
let long_segment_gen =
  QCheck.Gen.(string_size ~gen:legal_char (int_range 180 256))

let any_segment_gen =
  QCheck.Gen.(
    frequency
      [
        (12, string_size ~gen:legal_char (int_range 1 8));
        (1, return "");
        ( 1,
          map (fun s -> s ^ "*") (string_size ~gen:legal_char (int_range 0 4))
        );
        (1, map (fun c -> String.make 1 c) (oneofl [ ' '; '#'; '\\'; '~' ]));
        (1, return (String.make 257 'x'));
        (2, long_segment_gen);
      ])

let any_segs_gen =
  QCheck.Gen.(
    let nonempty = map (fun s -> if s = "" then "x" else s) any_segment_gen in
    let ending init = map (fun last -> init @ [ last ]) nonempty in
    frequency
      [
        (1, return []);
        (6, list_size (int_range 0 20) any_segment_gen >>= ending);
        (3, list_size (int_range 10 17) long_segment_gen >>= ending);
      ])

let print_segs segs =
  String.concat "/"
    (List.map
       (fun s ->
         if String.length s > 16 then
           Printf.sprintf "<%d bytes>" (String.length s)
         else Printf.sprintf "%S" s)
       segs)

(* A path built with [concat] and the one [of_string] parses from the
   same segments agree on every accessor, and one raises [Invalid]
   exactly when the other does. *)
let prop_concat_parses =
  QCheck.Test.make ~name:"concat builds what of_string parses" ~count:500
    (QCheck.make ~print:print_segs any_segs_gen)
    (fun segs ->
      let attempt f =
        match f () with x -> Some x | exception Xs_path.Invalid _ -> None
      in
      let built () = List.fold_left Xs_path.concat Xs_path.root segs in
      let str = "/" ^ String.concat "/" segs in
      let parsed () = Xs_path.of_string str in
      let parent p = Option.map Xs_path.to_string (Xs_path.parent p) in
      match (attempt built, attempt parsed) with
      | None, None -> true
      | Some a, Some b ->
          Xs_path.to_string a = str
          && Xs_path.to_string b = str
          && Xs_path.length a = String.length str
          && Xs_path.length b = String.length str
          && Xs_path.segments a = segs
          && Xs_path.segments b = segs
          && parent a = parent b
          && Xs_path.basename a = Xs_path.basename b
          && Xs_path.depth a = List.length segs
          && Xs_path.depth b = List.length segs
          && Xs_path.equal a b
      | Some _, None | None, Some _ -> false)

(* Paths over a small alphabet, so that equal paths, prefixes and
   siblings sharing a prefix are common; '-', '.' and '+' sort before
   '/', which a segment-wise order would get wrong. The specials are
   in the mix too. *)
let prefix_case_gen =
  QCheck.Gen.(
    let seg =
      string_size ~gen:(oneofl [ 'a'; 'b'; '-'; '.'; '+' ]) (int_range 1 2)
    in
    let path =
      frequency
        [
          ( 8,
            map
              (fun segs -> "/" ^ String.concat "/" segs)
              (list_size (int_range 1 4) seg) );
          (1, return "/");
          (1, oneofl [ "@introduceDomain"; "@releaseDomain" ]);
        ]
    in
    pair path path)

(* [is_prefix] follows the spec's rule: [<parent>/] is an initial
   substring of [<child>], or the two are equal; the root is a prefix
   of every non-special path. [equal] and [compare] are those of the
   strings. *)
let prop_path_order =
  QCheck.Test.make ~name:"is_prefix/equal/compare agree with the strings"
    ~count:1000
    (QCheck.make ~print:QCheck.Print.(pair string string) prefix_case_gen)
    (fun (sa, sb) ->
      let a = Xs_path.of_string sa and b = Xs_path.of_string sb in
      let special s = s.[0] = '@' in
      let prefix =
        String.equal sa sb
        || (sa = "/" && not (special sb))
        || String.starts_with ~prefix:(sa ^ "/") sb
      in
      Xs_path.is_prefix a ~of_:b = prefix
      && Xs_path.equal a b = String.equal sa sb
      && Int.compare (Xs_path.compare a b) 0
         = Int.compare (String.compare sa sb) 0)

(* ------------------------------------------------------------------ *)
(* Perms *)

let test_perms_basics () =
  let perms = Xs_perms.make ~owner:3 ~default:Xs_perms.Read () in
  Alcotest.(check bool) "owner writes" true
    (Xs_perms.can_write perms ~domid:3);
  Alcotest.(check bool) "other reads" true (Xs_perms.can_read perms ~domid:5);
  Alcotest.(check bool) "other cannot write" false
    (Xs_perms.can_write perms ~domid:5);
  Alcotest.(check bool) "dom0 writes anything" true
    (Xs_perms.can_write perms ~domid:0)

let test_perms_acl () =
  let perms =
    Xs_perms.grant (Xs_perms.owned_default 1) ~domid:4 Xs_perms.Write
  in
  Alcotest.(check bool) "acl write" true (Xs_perms.can_write perms ~domid:4);
  Alcotest.(check bool) "acl no read" false
    (Xs_perms.can_read perms ~domid:4);
  Alcotest.(check bool) "others nothing" false
    (Xs_perms.can_read perms ~domid:9)

let test_perms_string () =
  let perms =
    Xs_perms.make ~owner:3 ~default:Xs_perms.None_
      ~acl:[ (0, Xs_perms.Read); (5, Xs_perms.Both) ]
      ()
  in
  let s = Xs_perms.to_string perms in
  Alcotest.(check string) "encoding" "n3,r0,b5" s;
  match Xs_perms.of_string s with
  | None -> Alcotest.fail "failed to parse own encoding"
  | Some parsed ->
      Alcotest.(check bool) "round trip" true (Xs_perms.equal perms parsed)

let test_perms_bad_string () =
  Alcotest.(check bool) "garbage rejected" true
    (Xs_perms.of_string "x3,r0" = None);
  Alcotest.(check bool) "empty rejected" true (Xs_perms.of_string "" = None)

(* The daemon charges a Set_perms by [wire_length] instead of building
   the string. [make] takes any int, so the domids cover each change of
   digit count, both ends of the int range and negative values. *)
let prop_perms_wire_length =
  let domid =
    QCheck.Gen.(
      oneof
        [
          oneofl
            [
              0; 9; 10; 99; 100; max_int; min_int; -1; -9; -10; -100;
              min_int + 1;
            ];
          int;
        ])
  in
  let role = QCheck.Gen.oneofl Xs_perms.[ None_; Read; Write; Both ] in
  let perms =
    QCheck.Gen.(
      map3
        (fun owner default acl -> Xs_perms.make ~owner ~default ~acl ())
        domid role
        (list_size (int_range 0 4) (pair domid role)))
  in
  QCheck.Test.make ~name:"wire_length = length of to_string" ~count:500
    (QCheck.make ~print:Xs_perms.to_string perms)
    (fun p -> Xs_perms.wire_length p = String.length (Xs_perms.to_string p))

(* ------------------------------------------------------------------ *)
(* Store *)

let test_store_read_write () =
  let s = Xs_store.create () in
  Alcotest.check (store_res Alcotest.unit) "write" (Ok ())
    (Xs_store.write s ~caller:0 (p "/tool/test") "hello");
  Alcotest.check (store_res Alcotest.string) "read back" (Ok "hello")
    (Xs_store.read s ~caller:0 (p "/tool/test"));
  Alcotest.check (store_res Alcotest.string) "missing" (Error Xs_error.ENOENT)
    (Xs_store.read s ~caller:0 (p "/tool/absent"))

let test_store_implicit_parents () =
  let s = Xs_store.create () in
  Alcotest.check (store_res Alcotest.unit) "deep write" (Ok ())
    (Xs_store.write s ~caller:0 (p "/a/b/c/d") "v");
  Alcotest.check
    (store_res Alcotest.(list string))
    "intermediate created" (Ok [ "c" ])
    (Xs_store.directory s ~caller:0 (p "/a/b"))

let test_store_directory () =
  let s = Xs_store.create () in
  List.iter
    (fun name ->
      match Xs_store.write s ~caller:0 (p ("/dir/" ^ name)) name with
      | Ok () -> ()
      | Error e -> Alcotest.failf "write %s: %s" name (Xs_error.to_string e))
    [ "zeta"; "alpha"; "mid" ];
  Alcotest.check
    (store_res Alcotest.(list string))
    "sorted children"
    (Ok [ "alpha"; "mid"; "zeta" ])
    (Xs_store.directory s ~caller:0 (p "/dir"))

let test_store_rm_subtree () =
  let s = Xs_store.create () in
  ignore (Xs_store.write s ~caller:0 (p "/x/y/z") "1");
  ignore (Xs_store.write s ~caller:0 (p "/x/y2") "2");
  let before = Xs_store.node_count s in
  Alcotest.check (store_res Alcotest.unit) "rm" (Ok ())
    (Xs_store.rm s ~caller:0 (p "/x/y"));
  Alcotest.(check bool) "gone" false (Xs_store.exists s (p "/x/y/z"));
  Alcotest.(check bool) "sibling kept" true (Xs_store.exists s (p "/x/y2"));
  Alcotest.(check int) "count dropped by 2" (before - 2)
    (Xs_store.node_count s);
  Alcotest.check (store_res Alcotest.unit) "rm missing"
    (Error Xs_error.ENOENT)
    (Xs_store.rm s ~caller:0 (p "/x/y"))

let test_store_rm_root_rejected () =
  let s = Xs_store.create () in
  Alcotest.check (store_res Alcotest.unit) "rm root" (Error Xs_error.EINVAL)
    (Xs_store.rm s ~caller:0 Xs_path.root)

let test_store_permissions () =
  let s = Xs_store.create () in
  (* Dom0 creates a node owned by domain 5. *)
  ignore (Xs_store.write s ~caller:0 (p "/guest") "");
  ignore
    (Xs_store.set_perms s ~caller:0 (p "/guest")
       (Xs_perms.owned_default 5));
  Alcotest.check (store_res Alcotest.unit) "domain 5 writes" (Ok ())
    (Xs_store.write s ~caller:5 (p "/guest/data") "mine");
  Alcotest.check (store_res Alcotest.string) "domain 7 cannot read"
    (Error Xs_error.EACCES)
    (Xs_store.read s ~caller:7 (p "/guest/data"));
  Alcotest.check (store_res Alcotest.unit) "domain 7 cannot write"
    (Error Xs_error.EACCES)
    (Xs_store.write s ~caller:7 (p "/guest/data") "stolen");
  Alcotest.check (store_res Alcotest.unit)
    "domain 7 cannot create under /guest" (Error Xs_error.EACCES)
    (Xs_store.write s ~caller:7 (p "/guest/other") "x")

let test_store_setperms_owner_only () =
  let s = Xs_store.create () in
  ignore (Xs_store.write s ~caller:0 (p "/n") "");
  ignore (Xs_store.set_perms s ~caller:0 (p "/n") (Xs_perms.owned_default 5));
  Alcotest.check (store_res Alcotest.unit) "non-owner rejected"
    (Error Xs_error.EACCES)
    (Xs_store.set_perms s ~caller:7 (p "/n")
       (Xs_perms.owned_default 7));
  Alcotest.check (store_res Alcotest.unit) "owner allowed" (Ok ())
    (Xs_store.set_perms s ~caller:5 (p "/n")
       (Xs_perms.make ~owner:5 ~default:Xs_perms.Read ()))

let test_store_owned_count () =
  let s = Xs_store.create () in
  ignore (Xs_store.write s ~caller:0 (p "/g") "");
  ignore (Xs_store.set_perms s ~caller:0 (p "/g") (Xs_perms.owned_default 3));
  let base = Xs_store.owned_count s ~domid:3 in
  ignore (Xs_store.write s ~caller:3 (p "/g/a/b") "v");
  Alcotest.(check int) "two new nodes for domain 3" (base + 2)
    (Xs_store.owned_count s ~domid:3);
  ignore (Xs_store.rm s ~caller:3 (p "/g/a"));
  Alcotest.(check int) "freed on rm" base (Xs_store.owned_count s ~domid:3)

(* The owned counts are a 16-way trie over the domid's base-16 digits.
   Counts either side of a leaf's edge (15/16) and of a level's
   (255/256) stay apart, and so does the largest domid the wire's perms
   accept, which must fit a trie of bounded depth: a trie cut short
   would share its count with the domid that has the same low 60 bits.
   Each owner here owns a different number of nodes. *)
let test_store_owned_trie_edges () =
  let s = Xs_store.create () in
  let max_owner =
    match Xs_perms.of_string ("n" ^ string_of_int max_int) with
    | Some perms -> perms
    | None -> Alcotest.fail "wire perms refused max_int"
  in
  let owners =
    [ (15, Xs_perms.owned_default 15); (16, Xs_perms.owned_default 16);
      (255, Xs_perms.owned_default 255); (256, Xs_perms.owned_default 256);
      (max_int, max_owner) ]
  in
  List.iteri
    (fun i (domid, perms) ->
      let dir = p ("/o" ^ string_of_int domid) in
      ignore (Xs_store.write s ~caller:0 dir "");
      ignore (Xs_store.set_perms s ~caller:0 dir perms);
      for k = 1 to i do
        ignore
          (Xs_store.write s ~caller:domid
             (Xs_path.concat dir (string_of_int k))
             "")
      done)
    owners;
  List.iteri
    (fun i (domid, _) ->
      Alcotest.(check int)
        (Printf.sprintf "owned_count %d" domid)
        (i + 1)
        (Xs_store.owned_count s ~domid))
    owners;
  List.iter
    (fun domid ->
      Alcotest.(check int)
        (Printf.sprintf "owned_count %d" domid)
        0
        (Xs_store.owned_count s ~domid))
    [ 1; 14; 17; 254; 257; max_int - 1; max_int land ((1 lsl 60) - 1) ];
  Alcotest.(check int) "dom0 keeps the skeleton" 5
    (Xs_store.owned_count s ~domid:0)

(* A domain whose count falls to zero reads 0, and the trie keeps
   nothing for it: the store is the same size as one in which the
   domain never owned a node. Domain 17 shares a branch with Dom0, so
   only its leaf goes; domain 4000 takes its branch with it. Domain
   300 keeps both stores three levels deep. *)
let test_store_owned_zero_frees_leaf () =
  let build ~moved =
    let s = Xs_store.create () in
    ignore (Xs_store.write s ~caller:0 (p "/a") "");
    ignore
      (Xs_store.set_perms s ~caller:0 (p "/a") (Xs_perms.owned_default 300));
    ignore (Xs_store.write s ~caller:0 (p "/b") "");
    List.iter
      (fun domid ->
        ignore
          (Xs_store.set_perms s ~caller:0 (p "/b")
             (Xs_perms.owned_default domid));
        Alcotest.(check int) "moved in" 1 (Xs_store.owned_count s ~domid))
      moved;
    ignore
      (Xs_store.set_perms s ~caller:0 (p "/b") (Xs_perms.owned_default 0));
    s
  in
  let s = build ~moved:[ 17; 4000 ] in
  Alcotest.(check int) "owned_count 17" 0 (Xs_store.owned_count s ~domid:17);
  Alcotest.(check int) "owned_count 4000" 0
    (Xs_store.owned_count s ~domid:4000);
  Alcotest.(check int) "words of a store whose owners never moved"
    (Obj.reachable_words (Obj.repr (build ~moved:[])))
    (Obj.reachable_words (Obj.repr s))

let test_store_mkdir_idempotent () =
  let s = Xs_store.create () in
  Alcotest.check (store_res Alcotest.unit) "mkdir" (Ok ())
    (Xs_store.mkdir s ~caller:0 (p "/d"));
  Alcotest.check (store_res Alcotest.unit) "mkdir again" (Ok ())
    (Xs_store.mkdir s ~caller:0 (p "/d"))

let test_store_generation () =
  let s = Xs_store.create () in
  let g0 = Xs_store.generation s in
  ignore (Xs_store.write s ~caller:0 (p "/w") "1");
  Alcotest.(check bool) "write bumps" true (Xs_store.generation s > g0);
  let g1 = Xs_store.generation s in
  ignore (Xs_store.read s ~caller:0 (p "/w"));
  Alcotest.(check int) "read does not bump" g1 (Xs_store.generation s)

let test_store_snapshot_isolation () =
  let s = Xs_store.create () in
  ignore (Xs_store.write s ~caller:0 (p "/orig") "before");
  let view = Xs_store.of_snapshot (Xs_store.snapshot s) in
  ignore (Xs_store.write view ~caller:0 (p "/orig") "changed");
  ignore (Xs_store.write view ~caller:0 (p "/extra") "new");
  Alcotest.check (store_res Alcotest.string) "original untouched"
    (Ok "before")
    (Xs_store.read s ~caller:0 (p "/orig"));
  Alcotest.(check bool) "no leak" false (Xs_store.exists s (p "/extra"))

let test_store_snapshot_owned_independent () =
  (* Snapshots are pure structural sharing (immutable tree + persistent
     ownership counts), so the bookkeeping must be as independent as
     the data: neither direction of mutation may leak, including the
     per-domain owned counts quotas rely on. *)
  let s = Xs_store.create () in
  ignore (Xs_store.write s ~caller:0 (p "/g") "");
  ignore (Xs_store.set_perms s ~caller:0 (p "/g") (Xs_perms.owned_default 5));
  let before = Xs_store.owned_count s ~domid:5 in
  let view = Xs_store.of_snapshot (Xs_store.snapshot s) in
  ignore (Xs_store.write view ~caller:5 (p "/g/name") "g5");
  Alcotest.(check int) "original owned_count(5) untouched" before
    (Xs_store.owned_count s ~domid:5);
  Alcotest.(check int) "view owned_count(5) grew" (before + 1)
    (Xs_store.owned_count view ~domid:5);
  (* And the other direction: mutating the original after the snapshot
     must not show through the view. *)
  ignore (Xs_store.rm s ~caller:0 (p "/g"));
  Alcotest.(check int) "original freed its nodes" 0
    (Xs_store.owned_count s ~domid:5);
  Alcotest.(check int) "view owned_count(5) unaffected by rm" (before + 1)
    (Xs_store.owned_count view ~domid:5);
  Alcotest.(check bool) "view still has the node" true
    (Xs_store.exists view (p "/g/name"))

let prop_store_node_count =
  (* node_count always equals the actual size of the tree. *)
  QCheck.Test.make ~name:"store node count consistent" ~count:100
    QCheck.(
      list
        (pair (int_range 0 4)
           (list_of_size Gen.(int_range 1 3) (int_range 0 5))))
    (fun script ->
      let s = Xs_store.create () in
      List.iter
        (fun (kind, segs) ->
          let path =
            List.fold_left
              (fun acc seg -> acc ^ "/k" ^ string_of_int seg)
              "" segs
          in
          let path = p (if path = "" then "/k0" else path) in
          match kind with
          | 0 | 1 | 2 -> ignore (Xs_store.write s ~caller:0 path "v")
          | 3 -> ignore (Xs_store.mkdir s ~caller:0 path)
          | _ -> ignore (Xs_store.rm s ~caller:0 path))
        script;
      match Xs_store.lookup s Xs_path.root with
      | None -> false
      | Some root ->
          Xs_store.Node.subtree_size root = Xs_store.node_count s)

(* ------------------------------------------------------------------ *)
(* Transactions *)

let test_tx_commit_applies () =
  let s = Xs_store.create () in
  let tx = Xs_transaction.start s in
  Alcotest.check (store_res Alcotest.unit) "tx write" (Ok ())
    (Xs_transaction.write tx ~caller:0 (p "/t/a") "1");
  Alcotest.(check bool) "not yet visible" false (Xs_store.exists s (p "/t/a"));
  (match Xs_transaction.commit tx ~into:s with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "commit failed: %s" (Xs_error.to_string e));
  Alcotest.check (store_res Alcotest.string) "visible after commit" (Ok "1")
    (Xs_store.read s ~caller:0 (p "/t/a"))

let test_tx_reads_own_writes () =
  let s = Xs_store.create () in
  let tx = Xs_transaction.start s in
  ignore (Xs_transaction.write tx ~caller:0 (p "/t/x") "inner");
  Alcotest.check (store_res Alcotest.string) "tx sees own write"
    (Ok "inner")
    (Xs_transaction.read tx ~caller:0 (p "/t/x"))

let test_tx_conflict_detected () =
  let s = Xs_store.create () in
  ignore (Xs_store.write s ~caller:0 (p "/c") "0");
  let tx = Xs_transaction.start s in
  (* The transaction reads /c, then someone else changes it. *)
  ignore (Xs_transaction.read tx ~caller:0 (p "/c"));
  ignore (Xs_transaction.write tx ~caller:0 (p "/c2") "derived");
  ignore (Xs_store.write s ~caller:0 (p "/c") "interference");
  (match Xs_transaction.commit tx ~into:s with
  | Error Xs_error.EAGAIN -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Xs_error.to_string e)
  | Ok _ -> Alcotest.fail "conflicting commit succeeded");
  Alcotest.(check bool) "aborted tx left no writes" false
    (Xs_store.exists s (p "/c2"))

let test_tx_unrelated_interference_ok () =
  let s = Xs_store.create () in
  ignore (Xs_store.write s ~caller:0 (p "/c") "0");
  let tx = Xs_transaction.start s in
  ignore (Xs_transaction.read tx ~caller:0 (p "/c"));
  ignore (Xs_transaction.write tx ~caller:0 (p "/c2") "derived");
  (* Unrelated write elsewhere must not break serialisability. *)
  ignore (Xs_store.write s ~caller:0 (p "/elsewhere") "noise");
  match Xs_transaction.commit tx ~into:s with
  | Ok _ ->
      Alcotest.check (store_res Alcotest.string) "write applied"
        (Ok "derived")
        (Xs_store.read s ~caller:0 (p "/c2"))
  | Error e -> Alcotest.failf "spurious conflict: %s" (Xs_error.to_string e)

let test_tx_write_write_conflict () =
  let s = Xs_store.create () in
  ignore (Xs_store.write s ~caller:0 (p "/ww") "0");
  let tx = Xs_transaction.start s in
  (* Read-modify-write inside the transaction. *)
  ignore (Xs_transaction.read tx ~caller:0 (p "/ww"));
  ignore (Xs_transaction.write tx ~caller:0 (p "/ww") "tx");
  ignore (Xs_store.write s ~caller:0 (p "/ww") "other");
  match Xs_transaction.commit tx ~into:s with
  | Error Xs_error.EAGAIN -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Xs_error.to_string e)
  | Ok _ -> Alcotest.fail "lost update not detected"

let test_tx_writes_listed () =
  let s = Xs_store.create () in
  let tx = Xs_transaction.start s in
  ignore (Xs_transaction.write tx ~caller:0 (p "/w/one") "1");
  ignore (Xs_transaction.mkdir tx ~caller:0 (p "/w/two"));
  Alcotest.(check (list string))
    "modified paths in order" [ "/w/one"; "/w/two" ]
    (List.map Xs_path.to_string (Xs_transaction.writes tx))

(* The transaction implementation before commits adopted the view or the
   validated scratch copy: commit replayed the journal into the live
   store (after validating it on a scratch copy when the store had
   moved). Kept verbatim as the reference for [prop_commit_matches_replay]. *)
module Replay_tx = struct
  type journal_entry =
    | J_read of int * Xs_path.t * (string, Xs_error.t) result
    | J_directory of int * Xs_path.t * (string list, Xs_error.t) result
    | J_write of int * Xs_path.t * string
    | J_mkdir of int * Xs_path.t
    | J_rm of int * Xs_path.t
    | J_set_perms of int * Xs_path.t * Xs_perms.t

  type t = {
    tx_id : int;
    base_generation : int;
    view : Xs_store.t;
    mutable journal : journal_entry list; (* reversed *)
    mutable aborted : bool;
  }

  let start store ~id =
    {
      tx_id = id;
      base_generation = Xs_store.generation store;
      view = Xs_store.of_snapshot (Xs_store.snapshot store);
      journal = [];
      aborted = false;
    }

  let record t e = t.journal <- e :: t.journal

  let read t ~caller path =
    let r = Xs_store.read t.view ~caller path in
    record t (J_read (caller, path, r));
    r

  let directory t ~caller path =
    let r = Xs_store.directory t.view ~caller path in
    record t (J_directory (caller, path, r));
    r

  let write t ~caller path value =
    let r = Xs_store.write t.view ~caller path value in
    if r = Ok () then record t (J_write (caller, path, value));
    r

  let mkdir t ~caller path =
    let r = Xs_store.mkdir t.view ~caller path in
    if r = Ok () then record t (J_mkdir (caller, path));
    r

  let rm t ~caller path =
    let r = Xs_store.rm t.view ~caller path in
    if r = Ok () then record t (J_rm (caller, path));
    r

  let set_perms t ~caller path perms =
    let r = Xs_store.set_perms t.view ~caller path perms in
    if r = Ok () then record t (J_set_perms (caller, path, perms));
    r

  let entry_write_path = function
    | J_write (_, p, _) | J_mkdir (_, p) | J_rm (_, p)
    | J_set_perms (_, p, _) ->
        Some p
    | J_read _ | J_directory _ -> None

  let writes t =
    List.filter_map entry_write_path (List.rev t.journal)

  exception Conflict

  let replay_into store entries =
    let apply = function
      | J_read (caller, path, expected) ->
          if Xs_store.read store ~caller path <> expected then raise Conflict
      | J_directory (caller, path, expected) ->
          if Xs_store.directory store ~caller path <> expected then
            raise Conflict
      | J_write (caller, path, value) ->
          if Xs_store.write store ~caller path value <> Ok () then
            raise Conflict
      | J_mkdir (caller, path) ->
          if Xs_store.mkdir store ~caller path <> Ok () then raise Conflict
      | J_rm (caller, path) ->
          if Xs_store.rm store ~caller path <> Ok () then raise Conflict
      | J_set_perms (caller, path, perms) ->
          if Xs_store.set_perms store ~caller path perms <> Ok () then
            raise Conflict
    in
    List.iter apply entries

  let commit t ~into:store =
    if t.aborted then Error Xs_error.EINVAL
    else begin
      let modified = writes t in
      if Xs_store.generation store = t.base_generation then begin
        (* Fast path: nothing else touched the store. Re-apply journaled
           writes directly; they cannot conflict. *)
        (try replay_into store (List.rev t.journal)
         with Conflict -> assert false);
        Ok modified
      end
      else begin
        (* Validate + apply against a scratch copy so failure leaves the
           live store untouched. *)
        let scratch = Xs_store.of_snapshot (Xs_store.snapshot store) in
        match replay_into scratch (List.rev t.journal) with
        | () ->
            (* Apply for real, now that validation passed. *)
            (try replay_into store (List.rev t.journal)
             with Conflict ->
               (* Cannot happen: the live store has not changed since the
                  scratch copy was taken (single-threaded server). *)
               assert false);
            Ok modified
        | exception Conflict -> Error Xs_error.EAGAIN
      end
    end

  let abort t = t.aborted <- true
end

(* Commit adopts a store instead of replaying the journal into it; over
   random journals, with and without live writes between [start] and
   [commit] (and sometimes an abort), the outcome must match the
   replaying reference exactly: tree, generation, node count, owned
   counts, modified list and error. *)
let prop_commit_matches_replay =
  let callers = [| 0; 5; 7 |] in
  let op_gen =
    QCheck.Gen.(
      quad (int_range 0 5) (int_range 0 2)
        (list_size (int_range 1 3) (int_range 0 3))
        (int_range 0 2))
  in
  let path_of segs =
    p (List.fold_left (fun acc s -> acc ^ "/k" ^ string_of_int s) "" segs)
  in
  let perms_of v =
    Xs_perms.make ~owner:callers.(v)
      ~default:(if v = 2 then Xs_perms.Read else Xs_perms.None_)
      ()
  in
  (* One op against either a store or a transaction, as callbacks. *)
  let apply ~read ~directory ~write ~mkdir ~rm ~set_perms
      (kind, who, segs, v) =
    let caller = callers.(who) and path = path_of segs in
    match kind with
    | 0 -> ignore (read ~caller path)
    | 1 -> ignore (directory ~caller path)
    | 2 | 3 -> ignore (write ~caller path ("v" ^ string_of_int v))
    | 4 -> ignore (if v = 0 then rm ~caller path else mkdir ~caller path)
    | _ -> ignore (set_perms ~caller path (perms_of v))
  in
  let live s =
    apply ~read:(Xs_store.read s) ~directory:(Xs_store.directory s)
      ~write:(Xs_store.write s) ~mkdir:(Xs_store.mkdir s) ~rm:(Xs_store.rm s)
      ~set_perms:(Xs_store.set_perms s)
  in
  let observe s r =
    let nodes = ref [] in
    Xs_store.iter s (fun ~path ~value ~perms ->
        nodes :=
          (Xs_path.to_string path, value, Xs_perms.to_string perms) :: !nodes);
    ( List.rev !nodes,
      Xs_store.generation s,
      Xs_store.node_count s,
      Array.map (fun domid -> Xs_store.owned_count s ~domid) callers,
      Result.map (List.map Xs_path.to_string) r )
  in
  QCheck.Test.make ~name:"commit = replaying reference" ~count:300
    QCheck.(
      make
        Gen.(
          quad
            (list_size (int_range 0 12) op_gen)
            (list_size (int_range 0 12) op_gen)
            (opt (list_size (int_range 1 6) op_gen))
            (int_range 0 9)))
    (fun (setup, tx_ops, interleaved, abort) ->
      let fresh () =
        let s = Xs_store.create () in
        List.iter (live s) setup;
        s
      in
      let interleaved = Option.value interleaved ~default:[] in
      let adopted =
        let s = fresh () in
        let tx = Xs_transaction.start s in
        List.iter
          (apply ~read:(Xs_transaction.read tx)
             ~directory:(Xs_transaction.directory tx)
             ~write:(Xs_transaction.write tx) ~mkdir:(Xs_transaction.mkdir tx)
             ~rm:(Xs_transaction.rm tx)
             ~set_perms:(Xs_transaction.set_perms tx))
          tx_ops;
        List.iter (live s) interleaved;
        if abort = 0 then Xs_transaction.abort tx;
        observe s (Xs_transaction.commit tx ~into:s)
      in
      let replayed =
        let s = fresh () in
        let tx = Replay_tx.start s ~id:1 in
        List.iter
          (apply ~read:(Replay_tx.read tx) ~directory:(Replay_tx.directory tx)
             ~write:(Replay_tx.write tx) ~mkdir:(Replay_tx.mkdir tx)
             ~rm:(Replay_tx.rm tx) ~set_perms:(Replay_tx.set_perms tx))
          tx_ops;
        List.iter (live s) interleaved;
        if abort = 0 then Replay_tx.abort tx;
        observe s (Replay_tx.commit tx ~into:s)
      in
      adopted = replayed)

(* ------------------------------------------------------------------ *)
(* Transient store = persistent reference *)

(* [Xs_store] changes the nodes of its own epoch in place, where the
   store it replaced ([Xs_store_reference], verbatim) rebuilt the spine
   of an immutable tree on every mutation. Random scripts run the same
   steps on both, over a live store, two views and a snapshot slot, with
   up to two transactions open on the live store: mutations by callers
   0-3 over shared path prefixes, snapshots, [of_snapshot], restores
   (an [adopt] of a store seeded from the slot, against the reference's
   [restore]), and commits, on the fast path when the live store has
   not moved and by replay when it has. After every step each store (the slot through
   [of_snapshot], each open transaction through its view) must match
   the reference: listing, node count, generation and owned counts, and
   the step's result. Paths come from one pool of values, so the lookup
   memo, keyed by address, gets hit. *)

module R = Xs_store_reference

type kind = K_read | K_write | K_mkdir | K_rm | K_set_perms

type step =
  | Op of int * kind * int * int * int (* store, kind, caller, path, value *)
  | Snap of int
  | Of_snap of int (* a view *)
  | Restore of int
  | Tx_start of int
  | Tx_op of int * kind * int * int * int
  | Tx_commit of int

let ref_paths =
  let rec below depth dir =
    if depth = 0 then []
    else
      List.concat_map
        (fun seg ->
          let path = Xs_path.concat dir seg in
          path :: below (depth - 1) path)
        [ "k0"; "k1"; "k2" ]
  in
  (* The first six are the hot set, parsed apart from their equals in
     the tree below, so that equal paths at different addresses meet. *)
  Array.of_list
    (List.map p
       [
         "/k0";
         "/k0/k1";
         "/k0/k1/k2";
         "/local/domain/k0";
         "/local/domain/k0/k1";
         "/k1/k0";
       ]
    @ [ Xs_path.root; p "/local/domain"; p "@releaseDomain" ]
    @ below 3 Xs_path.root
    @ below 2 (p "/local/domain"))

let ref_perms =
  Xs_perms.
    [|
      owned_default 1;
      make ~owner:2 ~default:Read ();
      make ~owner:3 ~default:None_ ~acl:[ (1, Write) ] ();
      make ~owner:0 ~default:Both ();
      owned_default 3;
    |]

let kind_name = function
  | K_read -> "read"
  | K_write -> "write"
  | K_mkdir -> "mkdir"
  | K_rm -> "rm"
  | K_set_perms -> "set_perms"

let show_step = function
  | Op (i, k, c, pi, v) | Tx_op (i, k, c, pi, v) as step ->
      Printf.sprintf "%s%d %s by %d %s v%d"
        (match step with Op _ -> "store" | _ -> "tx")
        i (kind_name k) c
        (Xs_path.to_string ref_paths.(pi))
        v
  | Snap i -> Printf.sprintf "snapshot store%d" i
  | Of_snap i -> Printf.sprintf "store%d := of_snapshot" i
  | Restore i -> Printf.sprintf "restore store%d" i
  | Tx_start j -> Printf.sprintf "tx%d start" j
  | Tx_commit j -> Printf.sprintf "tx%d commit" j

let step_gen =
  let open QCheck.Gen in
  let kind =
    oneofl [ K_read; K_read; K_write; K_write; K_mkdir; K_rm; K_set_perms ]
  in
  let path =
    frequency
      [ (3, int_bound 5); (2, int_bound (Array.length ref_paths - 1)) ]
  in
  let args = pair (int_range 0 3) (pair path (int_bound 4)) in
  frequency
    [
      ( 10,
        map3 (fun i k (c, (pi, v)) -> Op (i, k, c, pi, v)) (int_range 0 2) kind
          args );
      (2, map (fun i -> Snap i) (int_range 0 2));
      (1, map (fun i -> Of_snap i) (int_range 1 2));
      (1, map (fun i -> Restore i) (int_range 0 2));
      (2, map (fun j -> Tx_start j) (int_range 0 1));
      ( 5,
        map3 (fun j k (c, (pi, v)) -> Tx_op (j, k, c, pi, v)) (int_range 0 1)
          kind args );
      (2, map (fun j -> Tx_commit j) (int_range 0 1));
    ]

(* The transaction as it committed before adoption, over the reference
   store: replay entries checked in journal order, written paths. *)
type ref_tx = {
  base : int;
  rview : R.t;
  mutable replay : (R.t -> bool) list; (* reversed *)
  mutable written : string list; (* reversed *)
}

let show_result show = function
  | Ok v -> "ok " ^ show v
  | Error e -> Xs_error.to_string e

(* One operation on any store-shaped target, as its rendered result. *)
let run_kind ~read ~write ~mkdir ~rm ~set_perms kind ~caller pi v =
  let path = ref_paths.(pi) and unit () = "" in
  match kind with
  | K_read -> show_result Fun.id (read ~caller path)
  | K_write -> show_result unit (write ~caller path ("v" ^ string_of_int v))
  | K_mkdir -> show_result unit (mkdir ~caller path)
  | K_rm -> show_result unit (rm ~caller path)
  | K_set_perms -> show_result unit (set_perms ~caller path ref_perms.(v))

(* The path read back by Dom0 right after a step's operation, through
   the lookup memo that the operation's own walk may have left. *)
let read_back read pi = show_result Fun.id (read ~caller:0 ref_paths.(pi))

let on_store s =
  Xs_store.(
    run_kind ~read:(read s) ~write:(write s) ~mkdir:(mkdir s) ~rm:(rm s)
      ~set_perms:(set_perms s))

let on_ref s =
  R.(
    run_kind ~read:(read s) ~write:(write s) ~mkdir:(mkdir s) ~rm:(rm s)
      ~set_perms:(set_perms s))

let on_tx tx =
  Xs_transaction.(
    run_kind ~read:(read tx) ~write:(write tx) ~mkdir:(mkdir tx) ~rm:(rm tx)
      ~set_perms:(set_perms tx))

let prop_store_matches_reference =
  QCheck.Test.make ~name:"transient store = persistent reference" ~count:300
    (QCheck.make
       ~print:(fun steps -> String.concat "\n" (List.map show_step steps))
       QCheck.Gen.(list_size (int_range 1 60) step_gen))
    (fun steps ->
      let live = Xs_store.create () and rlive = R.create () in
      let impl =
        [|
          live;
          Xs_store.of_snapshot (Xs_store.snapshot live);
          Xs_store.of_snapshot (Xs_store.snapshot live);
        |]
      in
      let refs =
        [|
          rlive;
          R.of_snapshot (R.snapshot rlive);
          R.of_snapshot (R.snapshot rlive);
        |]
      in
      let slot = ref (Xs_store.snapshot live, R.snapshot rlive) in
      let txs = [| None; None |] in
      let observe s =
        let nodes = ref [] in
        Xs_store.iter s (fun ~path ~value ~perms ->
            nodes :=
              (Xs_path.to_string path, value, Xs_perms.to_string perms)
              :: !nodes);
        ( !nodes,
          Xs_store.node_count s,
          Xs_store.generation s,
          List.init 4 (fun domid -> Xs_store.owned_count s ~domid) )
      in
      let observe_ref s =
        let nodes = ref [] in
        R.iter s (fun ~path ~value ~perms ->
            nodes :=
              (Xs_path.to_string path, value, Xs_perms.to_string perms)
              :: !nodes);
        ( !nodes,
          R.node_count s,
          R.generation s,
          List.init 4 (fun domid -> R.owned_count s ~domid) )
      in
      let check_same n what s rs =
        if observe s <> observe_ref rs then
          QCheck.Test.fail_reportf "step %d: %s differs from the reference" n
            what
      in
      let result n a b =
        if not (String.equal a b) then
          QCheck.Test.fail_reportf "step %d: result %S, reference %S" n a b
      in
      List.iteri
        (fun n step ->
          (match step with
          | Op (i, kind, caller, pi, v) ->
              result n
                (on_store impl.(i) kind ~caller pi v)
                (on_ref refs.(i) kind ~caller pi v);
              result n
                (read_back (Xs_store.read impl.(i)) pi)
                (read_back (R.read refs.(i)) pi)
          | Snap i -> slot := (Xs_store.snapshot impl.(i), R.snapshot refs.(i))
          | Of_snap i ->
              impl.(i) <- Xs_store.of_snapshot (fst !slot);
              refs.(i) <- R.of_snapshot (snd !slot)
          | Restore i ->
              Xs_store.adopt impl.(i)
                ~from:(Xs_store.of_snapshot (fst !slot));
              R.restore refs.(i) (snd !slot)
          | Tx_start j ->
              if Option.is_none txs.(j) then
                txs.(j) <-
                  Some
                    ( Xs_transaction.start impl.(0),
                      {
                        base = R.generation refs.(0);
                        rview = R.of_snapshot (R.snapshot refs.(0));
                        replay = [];
                        written = [];
                      } )
          | Tx_op (j, kind, caller, pi, v) -> (
              match txs.(j) with
              | None -> ()
              | Some (tx, rt) ->
                  let a = on_tx tx kind ~caller pi v in
                  let b = on_ref rt.rview kind ~caller pi v in
                  (* Journaled: every read, and each mutation that
                     succeeded; its replay must answer the same. *)
                  if kind = K_read || String.equal b "ok " then begin
                    rt.replay <-
                      (fun target ->
                        String.equal (on_ref target kind ~caller pi v) b)
                      :: rt.replay;
                    if kind <> K_read then
                      rt.written <-
                        Xs_path.to_string ref_paths.(pi) :: rt.written
                  end;
                  result n a b;
                  result n
                    (read_back (Xs_store.read (Xs_transaction.view tx)) pi)
                    (read_back (R.read rt.rview) pi))
          | Tx_commit j -> (
              match txs.(j) with
              | None -> ()
              | Some (tx, rt) ->
                  txs.(j) <- None;
                  let a =
                    Xs_transaction.commit tx ~into:impl.(0)
                    |> Result.map (List.map Xs_path.to_string)
                  in
                  let b =
                    if R.generation refs.(0) = rt.base then begin
                      R.restore refs.(0) (R.snapshot rt.rview);
                      Ok (List.rev rt.written)
                    end
                    else
                      let scratch = R.of_snapshot (R.snapshot refs.(0)) in
                      if List.for_all (fun f -> f scratch) (List.rev rt.replay)
                      then begin
                        R.restore refs.(0) (R.snapshot scratch);
                        Ok (List.rev rt.written)
                      end
                      else Error Xs_error.EAGAIN
                  in
                  result n
                    (show_result (String.concat ",") a)
                    (show_result (String.concat ",") b)));
          Array.iteri
            (fun i s -> check_same n (Printf.sprintf "store%d" i) s refs.(i))
            impl;
          check_same n "the snapshot slot"
            (Xs_store.of_snapshot (fst !slot))
            (R.of_snapshot (snd !slot));
          Array.iteri
            (fun j tx ->
              match tx with
              | None -> ()
              | Some (tx, rt) ->
                  check_same n
                    (Printf.sprintf "tx%d's view" j)
                    (Xs_transaction.view tx) rt.rview)
            txs)
        steps;
      true)

(* ------------------------------------------------------------------ *)
(* Store allocation *)

(* Minor words per store operation, by the difference between [2n] and
   [n] operations on the same store, so that the set-up cancels out.
   [Gc.minor_words] is exact. The store holds 10,000 domains, as the
   dense host of the scale experiments does, each owning its directory,
   so a write that rebuilt the path through /local/domain would pay
   for a 10,000-entry map, and an owned count kept in a map keyed by
   domid for a 10,000-entry map too. *)
let populate s =
  for i = 1 to 10_000 do
    let dir = Xs_path.domain_path i in
    ignore
      (Xs_store.write s ~caller:0 Xs_path.(dir / "name")
         ("guest-" ^ string_of_int i));
    ignore (Xs_store.set_perms s ~caller:0 dir (Xs_perms.owned_default i))
  done

let dense_store () =
  let s = Xs_store.create () in
  populate s;
  s

let words_per_op ~n run =
  let words k =
    let w0 = Gc.minor_words () in
    run k;
    Gc.minor_words () -. w0
  in
  (words (2 * n) -. words n) /. float_of_int n

let check_words name ~ceiling measured =
  if measured > ceiling then
    Alcotest.failf "%s: %.1f minor words, ceiling %.0f" name measured ceiling

(* Nothing shares the store's nodes, so an overwrite sets the value in
   place. *)
let test_overwrite_words () =
  let s = dense_store () in
  let path = Xs_path.(domain_path 5_000 / "name") in
  let overwrite k =
    for i = 1 to k do
      ignore (Xs_store.write s ~caller:0 path (if i land 1 = 0 then "a" else "b"))
    done
  in
  check_words "overwrite" ~ceiling:8. (words_per_op ~n:1000 overwrite)

(* A snapshot shares every node, so the first write after it copies the
   path down to the target and links each copy into its parent, which
   rebuilds a path through the 10,000-entry /local/domain map: about as
   many words as the rebuild every write made before the tree was
   transient. The snapshot's own words are measured apart and taken
   out; each value differs from the one it replaces. *)
let test_first_write_after_snapshot_words () =
  let s = dense_store () in
  let paths =
    Array.init 100 (fun i -> Xs_path.(domain_path ((i * 97) + 1) / "name"))
  in
  let snapshots k =
    for _ = 1 to k do
      ignore (Xs_store.snapshot s)
    done
  in
  let snapshot_and_write k =
    for i = 1 to k do
      ignore (Xs_store.snapshot s);
      ignore
        (Xs_store.write s ~caller:0 paths.(i mod 100)
           (if (i / 100) land 1 = 0 then "a" else "b"))
    done
  in
  check_words "first write after a snapshot" ~ceiling:125.
    (words_per_op ~n:1000 snapshot_and_write -. words_per_op ~n:1000 snapshots)

(* Moving a node between two domains that own nodes already, here Dom0
   and a guest as the toolstack does, changes their counts in place:
   the trie's nodes are the store's own. After a snapshot the first
   move copies the tree's path to the node, about 120 words, and each
   count's path through the trie once: two leaves and the five
   branches above them (they share the root), 20 words a node. A map
   keyed by domid rebuilds both paths through its 10,000 entries on
   every move, 160 words; a 32-way trie would copy 36 words a node,
   180 in all. *)
let test_set_perms_words () =
  let s = dense_store () in
  let path = Xs_path.(domain_path 5_000 / "name") in
  let perms = [| Xs_perms.owned_default 0; Xs_perms.owned_default 5_000 |] in
  let move k =
    for i = 1 to k do
      ignore (Xs_store.set_perms s ~caller:0 path perms.(i land 1))
    done
  in
  check_words "set_perms between owners" ~ceiling:8.
    (words_per_op ~n:1000 move);
  let snapshots k =
    for _ = 1 to k do
      ignore (Xs_store.snapshot s)
    done
  in
  let snapshot_and_move k =
    for i = 1 to k do
      ignore (Xs_store.snapshot s);
      ignore (Xs_store.set_perms s ~caller:0 path perms.(i land 1))
    done
  in
  check_words "first set_perms after a snapshot" ~ceiling:270.
    (words_per_op ~n:1000 snapshot_and_move -. words_per_op ~n:1000 snapshots)

(* A request to the daemon on the dense store: it waits for the mutex,
   charges its messages and dispatches without building a closure (a
   wrapper that took the request as closures added about 20 words).
   The target is a domain's directory node, so the overwrite is not a
   name write (no uniqueness scan) and fires no watch. The payload is
   charged by size, without serialising the request: a Set_perms that
   formatted its perms to measure them cost 98.5 words, the ACL the
   toolstack gives a frontend node included. Every charge adds to the
   daemon's busy time in place; a float kept in the counters record
   boxed each one (a Read's 16 words, an overwrite's 22). *)
let test_op_words () =
  let srv = Xs_server.create () in
  populate (Xs_server.store srv);
  let path = Xs_path.domain_path 5_000 in
  let read = Xs_server.Read path in
  let writes = [| Xs_server.Write (path, "a"); Xs_server.Write (path, "b") |] in
  let set_perms =
    [|
      Xs_server.Set_perms
        (path, Xs_perms.make ~owner:0 ~acl:[ (5_000, Xs_perms.Read) ] ());
      Xs_server.Set_perms (path, Xs_perms.owned_default 5_000);
    |]
  in
  let reads k =
    for _ = 1 to k do
      ignore (Xs_server.op srv ~caller:0 read)
    done
  in
  let alternate reqs k =
    for i = 1 to k do
      ignore (Xs_server.op srv ~caller:0 reqs.(i land 1))
    done
  in
  let measured = ref (0., 0., 0.) in
  ignore
    (Engine.run (fun () ->
         measured :=
           ( words_per_op ~n:1000 reads,
             words_per_op ~n:1000 (alternate writes),
             words_per_op ~n:1000 (alternate set_perms) )));
  let read_words, overwrite_words, set_perms_words = !measured in
  check_words "op Read" ~ceiling:14. read_words;
  check_words "op overwrite" ~ceiling:18. overwrite_words;
  check_words "op Set_perms" ~ceiling:20. set_perms_words

(* A path is its parent, one segment and a length, so extending one
   allocates a single node at any depth; a path that held its segment
   list and string copied both, 34 words at depth 7. The device
   directories chain one [concat] a level from the domain's path: each
   costs its nodes and its number strings (the list-built ones took 54
   and 59 words). *)
let test_path_words () =
  let dir = p "/local/domain/7/device/vif/0" in
  let concat k =
    for _ = 1 to k do
      ignore (Sys.opaque_identity (Xs_path.concat dir "state"))
    done
  in
  check_words "concat at depth 7" ~ceiling:4. (words_per_op ~n:1000 concat);
  let vif = Lightvm_guest.Device.vif ~devid:0 () in
  let each dir k =
    for _ = 1 to k do
      ignore (Sys.opaque_identity (dir ~domid:5_000 vif))
    done
  in
  check_words "frontend_dir" ~ceiling:30.
    (words_per_op ~n:1000 (each Lightvm_guest.Device.frontend_dir));
  check_words "backend_dir" ~ceiling:30.
    (words_per_op ~n:1000 (each Lightvm_guest.Device.backend_dir))

(* Most fires on a dense host hit no watch: such a fire walks the trie
   and returns without allocating, and one hit costs only a list cell
   on the walk and its cell and triple in the result, 10 words. Without
   the short-list arms, [List.sort] would add 21 words to either. *)
let test_matching_words () =
  let w = Xs_watch.create () in
  Xs_watch.add w ~owner:0 ~path:(p "/local/domain/0/backend/vif")
    ~token:"vif" ~deliver:ignore;
  Xs_watch.add w ~owner:0 ~path:(p "/local/domain/7/device")
    ~token:"device" ~deliver:ignore;
  let fire modified k =
    for _ = 1 to k do
      ignore (Sys.opaque_identity (Xs_watch.matching w ~modified))
    done
  in
  check_words "a fire with no hit" ~ceiling:0.
    (words_per_op ~n:1000 (fire (p "/local/domain/7/control/shutdown")));
  check_words "a fire with one hit" ~ceiling:10.
    (words_per_op ~n:1000 (fire (p "/local/domain/0/backend/vif/7/0/state")))

(* ------------------------------------------------------------------ *)
(* Watches *)

let test_watch_matching () =
  let w = Xs_watch.create () in
  let fired = ref [] in
  Xs_watch.add w ~owner:0 ~path:(p "/be/vif") ~token:"t1"
    ~deliver:(fun e -> fired := ("t1", e.Xs_watch.event_path) :: !fired);
  Xs_watch.add w ~owner:0 ~path:(p "/other") ~token:"t2"
    ~deliver:(fun e -> fired := ("t2", e.Xs_watch.event_path) :: !fired);
  let hits = Xs_watch.matching w ~modified:(p "/be/vif/3/0/state") in
  Alcotest.(check int) "one match" 1 (List.length hits);
  (match hits with
  | [ (wpath, token, _) ] ->
      Alcotest.(check string) "watch path" "/be/vif"
        (Xs_path.to_string wpath);
      Alcotest.(check string) "token" "t1" token
  | _ -> Alcotest.fail "unexpected matches");
  Alcotest.(check int) "no match elsewhere" 0
    (List.length (Xs_watch.matching w ~modified:(p "/unrelated")))

let test_watch_remove () =
  let w = Xs_watch.create () in
  Xs_watch.add w ~owner:2 ~path:(p "/a") ~token:"x" ~deliver:(fun _ -> ());
  Xs_watch.add w ~owner:2 ~path:(p "/b") ~token:"y" ~deliver:(fun _ -> ());
  Xs_watch.add w ~owner:3 ~path:(p "/c") ~token:"z" ~deliver:(fun _ -> ());
  Alcotest.(check bool) "remove hit" true
    (Xs_watch.remove w ~owner:2 ~path:(p "/a") ~token:"x");
  Alcotest.(check bool) "remove miss" false
    (Xs_watch.remove w ~owner:2 ~path:(p "/a") ~token:"x");
  Alcotest.(check int) "remove owner" 1 (Xs_watch.remove_owner w ~owner:2);
  Alcotest.(check int) "one left" 1 (Xs_watch.count w)

let test_watch_special () =
  let w = Xs_watch.create () in
  Xs_watch.add w ~owner:0 ~path:(p "@releaseDomain") ~token:"r"
    ~deliver:(fun _ -> ());
  Alcotest.(check int) "special matches exactly" 1
    (List.length (Xs_watch.matching w ~modified:(p "@releaseDomain")));
  Alcotest.(check int) "not ordinary paths" 0
    (List.length (Xs_watch.matching w ~modified:(p "/local")))

(* ------------------------------------------------------------------ *)
(* Wire protocol *)

let test_wire_roundtrip () =
  let buf =
    Xs_wire.pack Xs_wire.Write ~req_id:7l ~tx_id:3l
      [ "/local/domain/1/name"; "guest-1" ]
  in
  let header, args = Xs_wire.unpack buf in
  Alcotest.(check bool) "op" true (header.Xs_wire.op = Xs_wire.Write);
  Alcotest.(check int32) "req id" 7l header.Xs_wire.req_id;
  Alcotest.(check int32) "tx id" 3l header.Xs_wire.tx_id;
  Alcotest.(check (list string))
    "args" [ "/local/domain/1/name"; "guest-1" ] args

let test_wire_op_codes () =
  (* Spot-check the real protocol numbers. *)
  Alcotest.(check int) "READ" 2 (Xs_wire.op_to_int Xs_wire.Read);
  Alcotest.(check int) "WRITE" 11 (Xs_wire.op_to_int Xs_wire.Write);
  Alcotest.(check int) "WATCH_EVENT" 15
    (Xs_wire.op_to_int Xs_wire.Watch_event);
  List.iter
    (fun i ->
      match Xs_wire.op_of_int i with
      | Some op -> Alcotest.(check int) "inverse" i (Xs_wire.op_to_int op)
      | None -> Alcotest.failf "op %d not recognised" i)
    (List.init 20 Fun.id)

let test_wire_malformed () =
  (try
     ignore (Xs_wire.unpack_header (Bytes.create 4));
     Alcotest.fail "short header accepted"
   with Xs_wire.Malformed _ -> ());
  try
    ignore
      (Xs_wire.pack Xs_wire.Write ~req_id:0l ~tx_id:0l
         [ String.make 5000 'x' ]);
    Alcotest.fail "oversized payload accepted"
  with Xs_wire.Malformed _ -> ()

let prop_wire_roundtrip =
  let arg =
    QCheck.Gen.(
      string_size ~gen:(char_range 'a' 'z') (int_range 0 20))
  in
  QCheck.Test.make ~name:"wire pack/unpack round-trips" ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_range 0 5) arg))
    (fun args ->
      let buf = Xs_wire.pack Xs_wire.Read ~req_id:1l ~tx_id:2l args in
      let _, decoded = Xs_wire.unpack buf in
      decoded = args)

(* ------------------------------------------------------------------ *)
(* Logging *)

(* A file holds 13,215 lines: five 2,643-line accesses fill one. *)
let test_logging_rotation () =
  let log = Xs_logging.create ~enabled:true in
  let rotations = ref 0 in
  for _ = 1 to 25 do
    if Xs_logging.log_access log ~lines:2_643 then incr rotations
  done;
  Alcotest.(check int) "rotations" 5 !rotations;
  Alcotest.(check int) "totals" 66_075 (Xs_logging.total_lines log);
  Alcotest.(check int) "counter matches" 5 (Xs_logging.rotations log)

let test_logging_disabled () =
  let log = Xs_logging.create ~enabled:false in
  Alcotest.(check bool) "no rotation when disabled" false
    (Xs_logging.log_access log ~lines:13_215);
  Alcotest.(check int) "nothing recorded" 0 (Xs_logging.total_lines log)

(* ------------------------------------------------------------------ *)
(* Server *)

let test_server_basic_ops =
  in_sim (fun () ->
      let srv = Xs_server.create () in
      let t0 = Engine.now () in
      (match Xs_server.op srv ~caller:0 (Xs_server.Write (p "/a", "1")) with
      | Xs_server.Ok_unit -> ()
      | _ -> Alcotest.fail "write failed");
      (match Xs_server.op srv ~caller:0 (Xs_server.Read (p "/a")) with
      | Xs_server.Ok_value v -> Alcotest.(check string) "value" "1" v
      | _ -> Alcotest.fail "read failed");
      Alcotest.(check bool) "ops cost simulated time" true
        (Engine.now () > t0);
      Alcotest.(check int) "two ops counted" 2 (Xs_server.counters srv).ops)

let test_server_watch_fires =
  in_sim (fun () ->
      let srv = Xs_server.create () in
      let events = ref [] in
      ignore
        (Xs_server.watch srv ~caller:0 ~path:(p "/be") ~token:"tok"
           ~deliver:(fun e ->
             events := Xs_path.to_string e.Xs_watch.event_path :: !events));
      Engine.sleep 0.001;
      (* Registration fires the watch once. *)
      Alcotest.(check (list string)) "initial event" [ "/be" ] !events;
      ignore (Xs_server.op srv ~caller:0 (Xs_server.Write (p "/be/vif/1", "x")));
      Engine.sleep 0.001;
      Alcotest.(check (list string))
        "event for sub-path write" [ "/be/vif/1"; "/be" ] !events)

let test_server_unwatch =
  in_sim (fun () ->
      let srv = Xs_server.create () in
      let count = ref 0 in
      ignore
        (Xs_server.watch srv ~caller:0 ~path:(p "/w") ~token:"k"
           ~deliver:(fun _ -> incr count));
      Engine.sleep 0.001;
      let after_initial = !count in
      (match
         Xs_server.op srv ~caller:0 (Xs_server.Unwatch (p "/w", "k"))
       with
      | Xs_server.Ok_unit -> ()
      | _ -> Alcotest.fail "unwatch failed");
      ignore (Xs_server.op srv ~caller:0 (Xs_server.Write (p "/w/x", "1")));
      Engine.sleep 0.001;
      Alcotest.(check int) "no events after unwatch" after_initial !count)

let test_server_transaction_helper =
  in_sim (fun () ->
      let srv = Xs_server.create () in
      let result =
        Xs_server.transaction srv ~caller:0 (fun txid ->
            (match
               Xs_server.op srv ~caller:0 ~tx:txid
                 (Xs_server.Write (p "/tx/a", "1"))
             with
            | Xs_server.Ok_unit -> ()
            | _ -> Alcotest.fail "tx write failed");
            Ok ())
      in
      Alcotest.(check bool) "committed" true (result = Ok ());
      match Xs_server.op srv ~caller:0 (Xs_server.Read (p "/tx/a")) with
      | Xs_server.Ok_value v -> Alcotest.(check string) "applied" "1" v
      | _ -> Alcotest.fail "read after commit failed")

let test_server_quota =
  in_sim (fun () ->
      let srv = Xs_server.create () in
      (* Give domain 9 a writable area. *)
      ignore (Xs_server.op srv ~caller:0 (Xs_server.Mkdir (p "/g")));
      ignore
        (Xs_server.op srv ~caller:0
           (Xs_server.Set_perms (p "/g", Xs_perms.owned_default 9)));
      let write i =
        Xs_server.op srv ~caller:9
          (Xs_server.Write (p ("/g/n" ^ string_of_int i), "v"))
      in
      for i = 1 to 999 do
        match write i with
        | Xs_server.Ok_unit -> ()
        | _ -> Alcotest.failf "write %d" i
      done;
      (* Domain 9 now owns /g + 999 nodes = 1,000 = quota. *)
      match write 1000 with
      | Xs_server.Err Xs_error.EQUOTA -> ()
      | _ -> Alcotest.fail "quota not enforced")

(* A guest's node quota holds inside a transaction: each create is
   checked against the transaction's view, which counts the nodes the
   transaction itself created, and a mkdir is checked like a write. *)
let test_server_tx_quota =
  in_sim (fun () ->
      let srv = Xs_server.create () in
      ignore (Xs_server.op srv ~caller:0 (Xs_server.Mkdir (p "/g")));
      ignore
        (Xs_server.op srv ~caller:0
           (Xs_server.Set_perms (p "/g", Xs_perms.owned_default 9)));
      (* Domain 9 owns /g and 997 more nodes: two short of the quota. *)
      for i = 1 to 997 do
        ignore
          (Xs_server.op srv ~caller:9
             (Xs_server.Write (p ("/g/f" ^ string_of_int i), "v")))
      done;
      let show = function
        | Xs_server.Ok_unit -> "ok"
        | Xs_server.Err e -> Xs_error.to_string e
        | _ -> "other"
      in
      let replies =
        Xs_server.transaction srv ~caller:9 (fun txid ->
            Ok
              (List.init 6 (fun i ->
                   let path = p ("/g/n" ^ string_of_int i) in
                   show
                     (Xs_server.op srv ~caller:9 ~tx:txid
                        (if i land 1 = 0 then Xs_server.Write (path, "v")
                         else Xs_server.Mkdir path)))))
      in
      Alcotest.(check (result (list string) err))
        "two creates fit, four exceed the quota"
        (Ok [ "ok"; "ok"; "EQUOTA"; "EQUOTA"; "EQUOTA"; "EQUOTA" ])
        replies;
      Alcotest.(check int) "domain 9 owns its quota" 1000
        (Xs_store.owned_count (Xs_server.store srv) ~domid:9))

(* A request that fails by raising still leaves the daemon's mutex
   free: a guest's name scan is refused, since Dom0 made /local/domain
   unreadable, and the next request is served. A mutex left held would
   park that request for ever and end the run early. *)
let test_server_free_after_raise () =
  let served = ref false in
  ignore
    (Engine.run (fun () ->
         let srv = Xs_server.create () in
         ignore
           (Xs_server.op srv ~caller:0
              (Xs_server.Set_perms (p "/local/domain", Xs_perms.owned_default 0)));
         (match Xs_server.scan_names srv ~caller:7 with
         | _ -> Alcotest.fail "a guest scanned an unreadable /local/domain"
         | exception Xs_error.Error Xs_error.EACCES -> ());
         match Xs_server.op srv ~caller:0 (Xs_server.Read (p "/local")) with
         | Xs_server.Ok_value _ -> served := true
         | _ -> Alcotest.fail "read after the refused scan failed"));
  Alcotest.(check bool) "served after the refused scan" true !served

let test_server_uniqueness_scan_cost =
  in_sim (fun () ->
      let srv = Xs_server.create () in
      (* Populate N guests with names, then time another name write. *)
      let populate n =
        for i = 1 to n do
          ignore
            (Xs_server.op srv ~caller:0
               (Xs_server.Write
                  ( p (Printf.sprintf "/local/domain/%d/name" i),
                    Printf.sprintf "guest-%d" i )))
        done
      in
      let time_name_write i =
        let t0 = Engine.now () in
        ignore
          (Xs_server.op srv ~caller:0
             (Xs_server.Write
                ( p (Printf.sprintf "/local/domain/%d/name" i),
                  Printf.sprintf "guest-%d" i )));
        Engine.now () -. t0
      in
      populate 10;
      let cost_small = time_name_write 11 in
      populate 200;
      let cost_large = time_name_write 500 in
      Alcotest.(check bool)
        (Printf.sprintf "uniqueness scan grows (%g -> %g)" cost_small
           cost_large)
        true
        (cost_large > cost_small *. 5.))

let test_server_duplicate_name_rejected =
  in_sim (fun () ->
      let srv = Xs_server.create () in
      ignore
        (Xs_server.op srv ~caller:0
           (Xs_server.Write (p "/local/domain/1/name", "dup")));
      match
        Xs_server.op srv ~caller:0
          (Xs_server.Write (p "/local/domain/2/name", "dup"))
      with
      | Xs_server.Err Xs_error.EEXIST -> ()
      | _ -> Alcotest.fail "duplicate name accepted")

let test_server_concurrent_tx_conflict =
  in_sim (fun () ->
      let srv = Xs_server.create () in
      ignore (Xs_server.op srv ~caller:0 (Xs_server.Write (p "/shared", "0")));
      let get_txid () =
        match Xs_server.op srv ~caller:0 Xs_server.Transaction_start with
        | Xs_server.Ok_txid id -> id
        | _ -> Alcotest.fail "tx start failed"
      in
      let tx1 = get_txid () in
      let tx2 = get_txid () in
      let bump tx =
        match
          Xs_server.op srv ~caller:0 ~tx (Xs_server.Read (p "/shared"))
        with
        | Xs_server.Ok_value v ->
            let n = int_of_string v in
            ignore
              (Xs_server.op srv ~caller:0 ~tx
                 (Xs_server.Write (p "/shared", string_of_int (n + 1))))
        | _ -> Alcotest.fail "tx read failed"
      in
      bump tx1;
      bump tx2;
      (match
         Xs_server.op srv ~caller:0 ~tx:tx1 (Xs_server.Transaction_end true)
       with
      | Xs_server.Ok_unit -> ()
      | _ -> Alcotest.fail "first commit failed");
      (match
         Xs_server.op srv ~caller:0 ~tx:tx2 (Xs_server.Transaction_end true)
       with
      | Xs_server.Err Xs_error.EAGAIN -> ()
      | _ -> Alcotest.fail "second commit should conflict");
      Alcotest.(check int) "conflict counted" 1
        (Xs_server.counters srv).tx_conflicts;
      match Xs_server.op srv ~caller:0 (Xs_server.Read (p "/shared")) with
      | Xs_server.Ok_value v -> Alcotest.(check string) "no lost update" "1" v
      | _ -> Alcotest.fail "read failed")

let test_server_wire_interface =
  in_sim (fun () ->
      let srv = Xs_server.create () in
      let send op args =
        Xs_server.handle_packet srv ~caller:0
          (Xs_wire.pack op ~req_id:5l ~tx_id:0l args)
      in
      let _, _ = Xs_wire.unpack (send Xs_wire.Write [ "/wire/a"; "42" ]) in
      let header, args = Xs_wire.unpack (send Xs_wire.Read [ "/wire/a" ]) in
      Alcotest.(check bool) "read reply op" true
        (header.Xs_wire.op = Xs_wire.Read);
      Alcotest.(check int32) "req id echoed" 5l header.Xs_wire.req_id;
      Alcotest.(check (list string)) "value" [ "42" ] args;
      let header, args = Xs_wire.unpack (send Xs_wire.Read [ "/missing" ]) in
      Alcotest.(check bool) "error op" true
        (header.Xs_wire.op = Xs_wire.Error);
      Alcotest.(check (list string)) "ENOENT" [ "ENOENT" ] args)

let test_client_api =
  in_sim (fun () ->
      let srv = Xs_server.create () in
      let c = Xs_client.connect srv ~domid:0 in
      Xs_client.write c (p "/cl/x") "v";
      Alcotest.(check string) "read" "v" (Xs_client.read c (p "/cl/x"));
      Alcotest.(check (option string))
        "read_opt missing" None
        (Xs_client.read_opt c (p "/cl/missing"));
      Xs_client.with_transaction c (fun txid ->
          Xs_client.write c ~tx:txid (p "/cl/t1") "a";
          Xs_client.write c ~tx:txid (p "/cl/t2") "b");
      Alcotest.(check (list string))
        "directory" [ "t1"; "t2"; "x" ]
        (Xs_client.directory c (p "/cl"));
      Xs_client.rm c (p "/cl/x");
      Alcotest.check_raises "read after rm"
        (Xs_error.Error Xs_error.ENOENT) (fun () ->
          ignore (Xs_client.read c (p "/cl/x")));
      Alcotest.(check string) "domain path" "/local/domain/4"
        (Xs_client.get_domain_path c 4))

let suites =
  [
    ( "xenstore.path",
      [
        Alcotest.test_case "parse" `Quick test_path_parse;
        Alcotest.test_case "invalid" `Quick test_path_invalid;
        Alcotest.test_case "trailing slash" `Quick test_path_trailing_slash;
        Alcotest.test_case "parent/basename" `Quick
          test_path_parent_basename;
        Alcotest.test_case "prefix" `Quick test_path_prefix;
        Alcotest.test_case "special" `Quick test_path_special;
        Alcotest.test_case "domain path" `Quick test_path_domain;
        Alcotest.test_case "length limit" `Quick test_path_length_limit;
        QCheck_alcotest.to_alcotest prop_path_roundtrip;
        QCheck_alcotest.to_alcotest prop_concat_parses;
        QCheck_alcotest.to_alcotest prop_path_order;
      ] );
    ( "xenstore.perms",
      [
        Alcotest.test_case "basics" `Quick test_perms_basics;
        Alcotest.test_case "acl" `Quick test_perms_acl;
        Alcotest.test_case "string round trip" `Quick test_perms_string;
        Alcotest.test_case "bad strings" `Quick test_perms_bad_string;
        QCheck_alcotest.to_alcotest prop_perms_wire_length;
      ] );
    ( "xenstore.store",
      [
        Alcotest.test_case "read/write" `Quick test_store_read_write;
        Alcotest.test_case "implicit parents" `Quick
          test_store_implicit_parents;
        Alcotest.test_case "directory" `Quick test_store_directory;
        Alcotest.test_case "rm subtree" `Quick test_store_rm_subtree;
        Alcotest.test_case "rm root rejected" `Quick
          test_store_rm_root_rejected;
        Alcotest.test_case "permissions" `Quick test_store_permissions;
        Alcotest.test_case "set_perms owner only" `Quick
          test_store_setperms_owner_only;
        Alcotest.test_case "owned counts" `Quick test_store_owned_count;
        Alcotest.test_case "owned counts at the trie's edges" `Quick
          test_store_owned_trie_edges;
        Alcotest.test_case "a zero count frees its leaf" `Quick
          test_store_owned_zero_frees_leaf;
        Alcotest.test_case "mkdir idempotent" `Quick
          test_store_mkdir_idempotent;
        Alcotest.test_case "generation" `Quick test_store_generation;
        Alcotest.test_case "snapshot isolation" `Quick
          test_store_snapshot_isolation;
        Alcotest.test_case "snapshot owned counts independent" `Quick
          test_store_snapshot_owned_independent;
        QCheck_alcotest.to_alcotest prop_store_node_count;
      ] );
    ( "xenstore.transaction",
      [
        Alcotest.test_case "commit applies" `Quick test_tx_commit_applies;
        Alcotest.test_case "reads own writes" `Quick
          test_tx_reads_own_writes;
        Alcotest.test_case "conflict detected" `Quick
          test_tx_conflict_detected;
        Alcotest.test_case "unrelated interference ok" `Quick
          test_tx_unrelated_interference_ok;
        Alcotest.test_case "write-write conflict" `Quick
          test_tx_write_write_conflict;
        Alcotest.test_case "writes listed" `Quick test_tx_writes_listed;
        QCheck_alcotest.to_alcotest prop_commit_matches_replay;
        QCheck_alcotest.to_alcotest prop_store_matches_reference;
      ] );
    ( "xenstore.cost",
      [
        Alcotest.test_case "overwrite words" `Quick test_overwrite_words;
        Alcotest.test_case "first write after a snapshot words" `Quick
          test_first_write_after_snapshot_words;
        Alcotest.test_case "watch matching words" `Quick test_matching_words;
        Alcotest.test_case "set_perms words" `Quick test_set_perms_words;
        Alcotest.test_case "daemon request words" `Quick test_op_words;
        Alcotest.test_case "path words" `Quick test_path_words;
      ] );
    ( "xenstore.watch",
      [
        Alcotest.test_case "matching" `Quick test_watch_matching;
        Alcotest.test_case "remove" `Quick test_watch_remove;
        Alcotest.test_case "special paths" `Quick test_watch_special;
      ] );
    ( "xenstore.wire",
      [
        Alcotest.test_case "round trip" `Quick test_wire_roundtrip;
        Alcotest.test_case "op codes" `Quick test_wire_op_codes;
        Alcotest.test_case "malformed" `Quick test_wire_malformed;
        QCheck_alcotest.to_alcotest prop_wire_roundtrip;
      ] );
    ( "xenstore.logging",
      [
        Alcotest.test_case "rotation" `Quick test_logging_rotation;
        Alcotest.test_case "disabled" `Quick test_logging_disabled;
      ] );
    ( "xenstore.server",
      [
        Alcotest.test_case "basic ops" `Quick test_server_basic_ops;
        Alcotest.test_case "watch fires" `Quick test_server_watch_fires;
        Alcotest.test_case "unwatch" `Quick test_server_unwatch;
        Alcotest.test_case "transaction helper" `Quick
          test_server_transaction_helper;
        Alcotest.test_case "quota" `Quick test_server_quota;
        Alcotest.test_case "quota inside a transaction" `Quick
          test_server_tx_quota;
        Alcotest.test_case "daemon free after a raise" `Quick
          test_server_free_after_raise;
        Alcotest.test_case "uniqueness scan cost" `Quick
          test_server_uniqueness_scan_cost;
        Alcotest.test_case "duplicate name rejected" `Quick
          test_server_duplicate_name_rejected;
        Alcotest.test_case "concurrent tx conflict" `Quick
          test_server_concurrent_tx_conflict;
        Alcotest.test_case "wire interface" `Quick
          test_server_wire_interface;
        Alcotest.test_case "client api" `Quick test_client_api;
      ] );
  ]
