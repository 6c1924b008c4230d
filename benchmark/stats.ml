(* Medians, quartiles and the rule for comparing two commits. *)

(* Quartiles as Python's [statistics.quantiles(values, n=4)] gives them
   (the default exclusive method), with the median between them. *)
let quartiles values =
  let a = Array.of_list (List.filter Float.is_finite values) in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then (nan, nan, nan)
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let cut i =
      let m = n + 1 in
      let j = min (n - 1) (max 1 (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (cut 1, cut 2, cut 3)

type kind = Gain | Regression | Unresolved | No_change

type verdict = {
  kind : kind;
  pairs : int;
  wins : int;  (** pairs the change wins; ties count for neither side *)
  parent_q : float * float * float;
  change_q : float * float * float;
}

let min_pairs = 10

(* The choosing-metrics rule over runs taken in alternating pairs
   (parent, change): a gain needs the change to win at least 9 in 10
   pairs and the medians to differ by more than the parent's
   interquartile range; a regression is a median worse than the
   metric's bound; a spread wider than the bound leaves the metric
   unresolved unless every change run beats every parent run. *)
let verdict (m : Spec.metric) ~parent ~change =
  let better a b = match m.Spec.better with Spec.Lower -> a < b | Spec.Higher -> a > b in
  let rec zip p c =
    match (p, c) with x :: p', y :: c' -> (x, y) :: zip p' c' | _ -> []
  in
  let pairs = zip parent change in
  let wins = List.length (List.filter (fun (p, c) -> better c p) pairs) in
  let ((p1, pm, p3) as parent_q) = quartiles parent in
  let ((c1, cm, c3) as change_q) = quartiles change in
  let n = List.length pairs in
  let spread = Float.max (p3 -. p1) (c3 -. c1) /. Float.abs pm in
  let all_better =
    change <> [] && parent <> []
    && List.for_all (fun c -> List.for_all (fun p -> better c p) parent) change
  in
  let worse_by =
    match m.Spec.better with
    | Spec.Lower -> (cm -. pm) /. Float.abs pm
    | Spec.Higher -> (pm -. cm) /. Float.abs pm
  in
  let kind =
    if n < min_pairs then Unresolved
    else if spread > m.Spec.bound && not all_better then Unresolved
    else if
      better cm pm
      && 10 * wins >= 9 * n
      && Float.abs (cm -. pm) > p3 -. p1
    then Gain
    else if worse_by > m.Spec.bound then Regression
    else No_change
  in
  { kind; pairs = n; wins; parent_q; change_q }

let kind_name = function
  | Gain -> "gain"
  | Regression -> "regression"
  | Unresolved -> "unresolved"
  | No_change -> "no-change"

let describe (m : Spec.metric) v =
  let q (a, b, c) = Printf.sprintf "%.6g [%.6g, %.6g]" b a c in
  Printf.sprintf "%s: parent %s, change %s %s; change wins %d/%d pairs (bound %.3g)%s"
    (kind_name v.kind) (q v.parent_q) (q v.change_q) m.Spec.unit_ v.wins v.pairs m.Spec.bound
    (if v.pairs < min_pairs then Printf.sprintf " (needs %d pairs)" min_pairs else "")
