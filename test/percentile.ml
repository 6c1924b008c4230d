(* [linear samples p], [p] in [0, 100]: linear interpolation between the
   closest ranks of the sorted samples, the percentile the JIT, Lambda
   and process-creation checks read. *)
let linear samples p =
  let a = Array.of_list samples in
  Array.sort compare a;
  let rank = p /. 100. *. float_of_int (Array.length a - 1) in
  let lo = int_of_float rank in
  let hi = min (lo + 1) (Array.length a - 1) in
  let frac = rank -. float_of_int lo in
  (a.(lo) *. (1. -. frac)) +. (a.(hi) *. frac)
