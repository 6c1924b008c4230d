type t = {
  mutable samples : float array;
  mutable len : int;
  mutable total : float;
  (* Sorted view, invalidated by [add]; rebuilt at most once per batch
     of queries. *)
  mutable sorted : float array option;
}

let create () =
  { samples = Array.make 1024 0.; len = 0; total = 0.; sorted = None }

let add t x =
  if t.len = Array.length t.samples then begin
    let bigger = Array.make (2 * t.len) 0. in
    Array.blit t.samples 0 bigger 0 t.len;
    t.samples <- bigger
  end;
  t.samples.(t.len) <- x;
  t.len <- t.len + 1;
  t.total <- t.total +. x;
  t.sorted <- None

let count t = t.len

let mean t = if t.len = 0 then 0. else t.total /. float_of_int t.len

let sorted t =
  match t.sorted with
  | Some a -> a
  | None ->
      let a = Array.sub t.samples 0 t.len in
      Array.sort compare a;
      t.sorted <- Some a;
      a

let quantile t q =
  if t.len = 0 then invalid_arg "Quantiles.quantile: empty";
  if q < 0. || q > 1. then invalid_arg "Quantiles.quantile: q outside [0,1]";
  let a = sorted t in
  let rank =
    min (t.len - 1)
      (int_of_float (Float.round (q *. float_of_int (t.len - 1))))
  in
  a.(rank)

let merge_into t ~src =
  for i = 0 to src.len - 1 do
    add t src.samples.(i)
  done

let sorted_points t ~every =
  if t.len = 0 then []
  else begin
    let a = sorted t in
    let every = max 1 every in
    let out = ref [] in
    for i = t.len - 1 downto 0 do
      if i = 0 || i = t.len - 1 || i mod every = 0 then
        out :=
          (a.(i), float_of_int (i + 1) /. float_of_int t.len) :: !out
    done;
    !out
  end
