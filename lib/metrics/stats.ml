type t = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float;
  mutable min_v : float;
  mutable max_v : float;
  mutable sum : float;
}

let create () =
  { n = 0; mean = 0.; m2 = 0.; min_v = infinity; max_v = neg_infinity;
    sum = 0. }

let add t x =
  t.n <- t.n + 1;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if x < t.min_v then t.min_v <- x;
  if x > t.max_v then t.max_v <- x;
  t.sum <- t.sum +. x

let count t = t.n
let mean t = if t.n = 0 then 0. else t.mean
let variance t = if t.n < 2 then 0. else t.m2 /. float_of_int (t.n - 1)
let min_value t = t.min_v
let max_value t = t.max_v
let sum t = t.sum

let percentile samples p =
  match samples with
  | [] -> invalid_arg "Stats.percentile: empty sample list"
  | _ ->
      if p < 0. || p > 100. then
        invalid_arg "Stats.percentile: p outside [0, 100]";
      let sorted = Array.of_list samples in
      Array.sort compare sorted;
      let n = Array.length sorted in
      if n = 1 then sorted.(0)
      else begin
        let rank = p /. 100. *. float_of_int (n - 1) in
        let lo = int_of_float (Float.floor rank) in
        let hi = int_of_float (Float.ceil rank) in
        if lo = hi then sorted.(lo)
        else begin
          let frac = rank -. float_of_int lo in
          (sorted.(lo) *. (1. -. frac)) +. (sorted.(hi) *. frac)
        end
      end

let median samples = percentile samples 50.
