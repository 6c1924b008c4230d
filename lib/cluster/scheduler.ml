type policy = Binpack | Spread | Pool_everywhere

let policies = [ Binpack; Spread; Pool_everywhere ]

let policy_name = function
  | Binpack -> "binpack"
  | Spread -> "spread"
  | Pool_everywhere -> "pool-everywhere"

type host_view = {
  hv_id : int;
  hv_rack : int;
  hv_vms : int;
  hv_free_kb : int;
}

type t = { pol : policy; mutable cursor : int }

let make pol = { pol; cursor = 0 }


(* The feasible view that [better] ranks first, in one pass. Every
   ranking ends on the id, so the choice never depends on the order of
   the array (hosts can arrive in any order). The scans take every
   value they use as an argument, so a placement builds no closure for
   them. *)
let rec scan better mem_kb hosts best i =
  if i = Array.length hosts then best
  else
    let h = hosts.(i) in
    scan better mem_kb hosts
      (if h.hv_free_kb >= mem_kb && better h best then h else best)
      (i + 1)

let rec first better mem_kb hosts i =
  if i = Array.length hosts then None
  else
    let h = hosts.(i) in
    if h.hv_free_kb >= mem_kb then Some (scan better mem_kb hosts h (i + 1))
    else first better mem_kb hosts (i + 1)

let pick better ~mem_kb hosts = first better mem_kb hosts 0

(* VMs per rack over every view given, infeasible hosts included. *)
let rack_loads hosts =
  let racks =
    Array.fold_left
      (fun n h -> if h.hv_rack >= n then h.hv_rack + 1 else n)
      0 hosts
  in
  let loads = Array.make racks 0 in
  Array.iter (fun h -> loads.(h.hv_rack) <- loads.(h.hv_rack) + h.hv_vms) hosts;
  loads

let place t ~hosts ~mem_kb =
  let chosen =
    match t.pol with
    | Binpack ->
        (* Tightest fit: least free memory, then lowest id. *)
        pick
          (fun a b ->
            if a.hv_free_kb <> b.hv_free_kb then a.hv_free_kb < b.hv_free_kb
            else a.hv_id < b.hv_id)
          ~mem_kb hosts
    | Spread ->
        (* Least-loaded rack first (failure-domain spreading), then
           least-loaded host, then most free memory, then id. *)
        let loads = rack_loads hosts in
        pick
          (fun a b ->
            let la = loads.(a.hv_rack) and lb = loads.(b.hv_rack) in
            if la <> lb then la < lb
            else if a.hv_vms <> b.hv_vms then a.hv_vms < b.hv_vms
            else if a.hv_free_kb <> b.hv_free_kb then
              a.hv_free_kb > b.hv_free_kb
            else a.hv_id < b.hv_id)
          ~mem_kb hosts
    | Pool_everywhere ->
        (* Round-robin over host ids, skipping infeasible hosts: the
           lowest id at or past the cursor, else (wrapping) the lowest
           id, so consecutive VMs land on consecutive warm pools. *)
        let cursor = t.cursor in
        let chosen =
          pick
            (fun a b ->
              if a.hv_id < cursor then b.hv_id < cursor && a.hv_id < b.hv_id
              else b.hv_id < cursor || a.hv_id < b.hv_id)
            ~mem_kb hosts
        in
        (match chosen with Some h -> t.cursor <- h.hv_id + 1 | None -> ());
        chosen
  in
  match chosen with
  | None ->
      Error
        (Printf.sprintf "no host with %d kB free (cluster of %d)" mem_kb
           (Array.length hosts))
  | Some h -> Ok h.hv_id
