(* The splitmix64 state lives in 8 bytes rather than a mutable [int64]
   field: reading and writing it with [Bytes.get/set_int64_le] keeps the
   arithmetic in registers, so a draw allocates nothing but a boxed
   result where the caller keeps one (a [float], an [int64]). *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 seed;
  b

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next t =
  let s = Int64.add (Bytes.get_int64_le t 0) golden_gamma in
  Bytes.set_int64_le t 0 s;
  mix s

let int64 t = next t

let split t = create (next t)

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Modulo bias is negligible for simulation-sized bounds. *)
  Int64.to_int (Int64.rem (Int64.shift_right_logical (next t) 1)
                  (Int64.of_int n))

let[@inline] unit_float t =
  Int64.to_float (Int64.shift_right_logical (next t) 11) /. 9007199254740992.0

let float t x = unit_float t *. x

let exponential t ~mean =
  let u = unit_float t *. 1.0 in
  (* Guard against log 0. *)
  let u = if u <= 0. then 1e-18 else u in
  -.mean *. log u

let bool t p = unit_float t *. 1.0 < p

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
