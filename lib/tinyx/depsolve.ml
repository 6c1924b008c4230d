type result = {
  packages : string list;
  blacklisted : string list;
  total_kb : int;
}

let blacklist =
  [ "dpkg"; "apt"; "debconf"; "perl-base"; "gcc-4.9-base"; "systemd";
    "sysvinit" ]

let closure ~repo roots =
  let seen = Hashtbl.create 32 in
  let rec visit name =
    if not (Hashtbl.mem seen name) then begin
      match Package.find repo name with
      | None -> raise (Failure ("unknown package: " ^ name))
      | Some p ->
          Hashtbl.replace seen name ();
          List.iter visit p.Package.deps
    end
  in
  match List.iter visit roots with
  | () ->
      Ok
        (List.sort compare
           (Hashtbl.fold (fun name () acc -> name :: acc) seen []))
  | exception Failure msg -> Error msg

let resolve ?(whitelist = []) ~repo ~app () =
  match Package.find repo app with
  | None -> Error ("unknown application package: " ^ app)
  | Some _ -> (
      (* objdump pass: libraries -> providing packages. *)
      let lib_packages =
        List.concat_map
          (fun lib ->
            List.map
              (fun p -> p.Package.name)
              (Package.providers_of_lib repo lib))
          (Data.objdump_libs app)
      in
      let roots = (app :: "busybox" :: whitelist) @ lib_packages in
      match closure ~repo roots with
      | Error _ as e -> e
      | Ok full ->
          (* The blacklist drops install-time machinery unless the user
             whitelisted it back. *)
          let keep name =
            List.mem name whitelist || not (List.mem name blacklist)
          in
          let packages, blacklisted = List.partition keep full in
          Ok
            {
              packages;
              blacklisted;
              total_kb = Package.size_kb repo packages;
            })
