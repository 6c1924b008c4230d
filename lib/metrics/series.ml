type t = {
  name : string;
  unit_label : string;
  mutable rev_points : (float * float) list;
  mutable n : int;
}

let create ?(unit_label = "") ~name () =
  { name; unit_label; rev_points = []; n = 0 }

let name t = t.name
let unit_label t = t.unit_label

let add t ~x ~y =
  t.rev_points <- (x, y) :: t.rev_points;
  t.n <- t.n + 1

let points t = List.rev t.rev_points
let length t = t.n

let last_y t =
  match t.rev_points with [] -> None | (_, y) :: _ -> Some y

let fold_y f init t =
  List.fold_left (fun acc (_, y) -> f acc y) init t.rev_points

let max_y t = fold_y max neg_infinity t
let min_y t = fold_y min infinity t

let y_at t ~x =
  List.find_map
    (fun (px, py) -> if px = x then Some py else None)
    (points t)
