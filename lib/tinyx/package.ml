type t = {
  name : string;
  size_kb : int;
  deps : string list;
  libs : string list;
  required_for_install_only : bool;
  has_install_scripts : bool;
}

type repo = { by_name : (string, t) Hashtbl.t; order : t list }

let repo_of_list packages =
  let by_name = Hashtbl.create 64 in
  List.iter (fun p -> Hashtbl.replace by_name p.name p) packages;
  { by_name; order = packages }

let find repo name = Hashtbl.find_opt repo.by_name name

let providers_of_lib repo lib =
  List.filter (fun p -> List.mem lib p.libs) repo.order

let size_kb repo names =
  List.fold_left
    (fun acc name ->
      match find repo name with Some p -> acc + p.size_kb | None -> acc)
    0 names
