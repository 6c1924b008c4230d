module SSet = Set.Make (String)

type config = SSet.t

let option_table =
  let tbl = Hashtbl.create 32 in
  List.iter (fun o -> Hashtbl.replace tbl o.Data.opt_name o) Data.koptions;
  tbl

let find_option name = Hashtbl.find_opt option_table name

let tinyconfig =
  List.fold_left
    (fun acc o ->
      if o.Data.default_in_tinyconfig then SSet.add o.Data.opt_name acc
      else acc)
    SSet.empty Data.koptions

let rec enable config name =
  match find_option name with
  | None -> Error ("unknown kernel option: " ^ name)
  | Some o ->
      List.fold_left
        (fun acc dep ->
          match acc with Error _ -> acc | Ok c -> enable c dep)
        (Ok (SSet.add name config))
        o.Data.opt_deps

let enable_exn config name =
  match enable config name with
  | Ok c -> c
  | Error msg -> invalid_arg msg

let for_platform platform =
  List.fold_left enable_exn tinyconfig (Data.platform_required platform)

let disable config name =
  (* Drop the option and, transitively, everything depending on it. *)
  let rec go config =
    let dead =
      SSet.filter
        (fun n ->
          match find_option n with
          | None -> false
          | Some o ->
              List.exists
                (fun dep -> not (SSet.mem dep config))
                o.Data.opt_deps)
        config
    in
    if SSet.is_empty dead then config else go (SSet.diff config dead)
  in
  go (SSet.remove name config)

let is_enabled config name = SSet.mem name config

let enabled config = SSet.elements config

let image_kb config =
  SSet.fold
    (fun name acc ->
      match find_option name with
      | Some o -> acc + o.Data.size_kb
      | None -> acc)
    config Data.tinyconfig_base_kb

let runtime_kb config =
  SSet.fold
    (fun name acc ->
      match find_option name with
      | Some o -> acc + o.Data.runtime_kb
      | None -> acc)
    config Data.tinyconfig_runtime_kb

let debian_like =
  List.fold_left
    (fun acc name ->
      match enable acc name with Ok c -> c | Error _ -> acc)
    tinyconfig Data.debian_kernel_options

let boots config ~platform ~app =
  let required = Data.platform_required platform @ Data.app_required app in
  List.for_all (fun name -> SSet.mem name config) required

let prune ~platform ~app config =
  List.fold_left
    (fun (config, iterations) name ->
      if not (SSet.mem name config) then (config, iterations)
      else begin
        let attempt = disable config name in
        (* "rebuild the kernel with the olddefconfig target, boot the
           Tinyx image, and run a user-provided test" *)
        if boots attempt ~platform ~app then (attempt, iterations + 1)
        else (config, iterations + 1)
      end)
    (config, 0) (enabled config)
