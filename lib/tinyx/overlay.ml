type layer = {
  layer_name : string;
  files_kb : int;
}

type t = {
  upper_kb : int;
  stripped_kb : int;
  merged : layer list;
}

let debootstrap_base = { layer_name = "debootstrap-base"; files_kb = 190_000 }

let busybox_underlay = { layer_name = "busybox-underlay"; files_kb = 1_880 }

(* Installing through the package manager leaves caches, lists and
   dpkg/apt databases behind: roughly this fraction of the installed
   payload, plus a fixed chunk of apt lists. *)
let cache_fraction = 0.18
let apt_state_kb = 1_400

let assemble ~repo ~packages ~app_glue_kb =
  let installed_kb = Package.size_kb repo packages in
  let cache_kb =
    apt_state_kb + int_of_float (cache_fraction *. float_of_int installed_kb)
  in
  let upper_kb = installed_kb + cache_kb in
  (* "Before unmounting, we remove all cache files, any dpkg/apt related
     files, and other unnecessary directories." *)
  let cleaned_kb = upper_kb - cache_kb in
  (* BusyBox already provides core utilities; overlap with packages that
     ship the same tools is deduplicated by the merge. *)
  let merged =
    [
      busybox_underlay;
      { layer_name = "overlay-cleaned"; files_kb = cleaned_kb };
      { layer_name = "init-glue"; files_kb = app_glue_kb };
    ]
  in
  { upper_kb; stripped_kb = cache_kb; merged }

let upper_kb t = t.upper_kb
let stripped_kb t = t.stripped_kb

let distribution_kb t =
  List.fold_left (fun acc l -> acc + l.files_kb) 0 t.merged
