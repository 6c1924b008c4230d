(* The result manifest: one line per checked result, "<key> <digest>",
   where the digest is the MD5 of the result rendered with exact (hex)
   floats. A change that moves simulated behaviour moves a line; one
   that only changes host cost moves none. *)

module E = Lightvm.Experiment
module Series = Lightvm_metrics.Series
module Table = Lightvm_metrics.Table

(* Exact render: any numeric divergence shows up in the bytes. *)
let render (r : E.result) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf r.E.name;
  Buffer.add_char buf '/';
  Buffer.add_string buf r.E.figure;
  Buffer.add_char buf '\n';
  List.iter
    (fun (l : E.labelled) ->
      Buffer.add_string buf ("# " ^ l.E.label ^ "\n");
      List.iter
        (fun (x, y) -> Buffer.add_string buf (Printf.sprintf "%h\t%h\n" x y))
        (Series.points l.E.series))
    r.E.series;
  List.iter
    (fun t -> Buffer.add_string buf (Format.asprintf "%a@." Table.pp t))
    r.E.tables;
  List.iter (fun n -> Buffer.add_string buf (n ^ "\n")) r.E.notes;
  Buffer.contents buf

let digest s = Digest.to_hex (Digest.string s)

(* Every registry entry renders at this scale. *)
let sweep_n = 40

(* Larger renders: fig9 at the paper's n = 1000 (the watch registry,
   snapshots and store walks at full size), and the scheduler's
   placements with the drain and rebalance they feed. *)
let pins = [ ("fig9", 1000); ("cluster", 500); ("cluster-scale", 2000) ]

let xenstore_count = 3

let render_key id n = Printf.sprintf "%s@%d" id n

let xenstore_key = Printf.sprintf "xenstore-dump@%d" xenstore_count

let render_plan plan = render (E.run_plan ~jobs:1 plan)

let render_pin (id, n) =
  match E.plan { E.default_args with n = Some n } id with
  | Ok plan -> render_plan plan
  | Error msg -> invalid_arg ("Digest_manifest: " ^ msg)

(* Resume outputs: every prefix key that [snapshot -n 24] lists,
   captured partitioned with one worker and resumed with the CLI's
   defaults (no -n, no --faults, --fault-seed 42). *)
let resume_n = 24

let resume_key prefix_key = "resume/" ^ prefix_key

let ok_or_fail = function Ok v -> v | Error msg -> failwith msg

let render_resume key =
  let path = Filename.temp_file "lightvm_manifest" ".lvmsnap" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let args = { E.default_args with n = Some resume_n } in
      ignore (ok_or_fail (E.snapshot_to_file args ~key ~path));
      render (ok_or_fail (E.resume_from_file E.default_args ~path)))

let entries () =
  List.map
    (fun (id, plan) ->
      (render_key id sweep_n, fun () -> digest (render_plan plan)))
    (E.plans { E.default_args with n = Some sweep_n })
  @ List.map
      (fun ((id, n) as pin) ->
        (render_key id n, fun () -> digest (render_pin pin)))
      pins
  @ [
      ( xenstore_key,
        fun () -> digest (E.xenstore_dump ~count:xenstore_count) );
    ]
  @ List.map
      (fun (p : E.prefix) ->
        let key = p.E.prefix_key in
        (resume_key key, fun () -> digest (render_resume key)))
      (E.prefixes { E.default_args with n = Some resume_n })

let header =
  "# Result digests, checked by dune runtest (test/test_parallel.ml;\n\
   #   resume/ lines in test/test_checkpoint.ml).\n\
   # <id>@<n>: MD5 of the registry entry rendered with exact floats.\n\
   # xenstore-dump@3: MD5 of what `lightvm_cli xenstore --count 3` prints.\n\
   # resume/<key>: MD5 of the resume_from_file render (CLI defaults) of the\n\
   #   image `lightvm_cli snapshot <key> -n 24 --jobs 1` writes.\n\
   # Regenerate: dune exec test/manifest/regen.exe > test/digests.txt\n\
   # A change that moves a line names it, and why, in CHANGES.md.\n"

let to_string lines =
  header
  ^ String.concat "" (List.map (fun (k, d) -> k ^ " " ^ d ^ "\n") lines)

let parse text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         if line = "" || line.[0] = '#' then None
         else
           match String.split_on_char ' ' line with
           | [ key; digest ] -> Some (key, digest)
           | _ -> invalid_arg ("Digest_manifest: bad line " ^ line))

(* The copy dune places next to the test binary. *)
let load () =
  let path =
    Filename.concat (Filename.dirname Sys.executable_name) "digests.txt"
  in
  parse (In_channel.with_open_bin path In_channel.input_all)
