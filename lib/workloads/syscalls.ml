type point = {
  year : int;
  version : string;
  syscalls : int;
}

(* Approximate x86_32 syscall-table sizes at each release (paper Fig 1:
   from about 200 in 2002 to about 400 by 2017). *)
let data =
  [
    { year = 2002; version = "2.5.31"; syscalls = 221 };
    { year = 2003; version = "2.6.0"; syscalls = 274 };
    { year = 2005; version = "2.6.11"; syscalls = 289 };
    { year = 2006; version = "2.6.16"; syscalls = 310 };
    { year = 2008; version = "2.6.24"; syscalls = 325 };
    { year = 2009; version = "2.6.32"; syscalls = 337 };
    { year = 2011; version = "3.0"; syscalls = 347 };
    { year = 2013; version = "3.10"; syscalls = 351 };
    { year = 2015; version = "4.0"; syscalls = 364 };
    { year = 2016; version = "4.8"; syscalls = 379 };
    { year = 2017; version = "4.14"; syscalls = 385 };
    { year = 2018; version = "4.17"; syscalls = 397 };
  ]

let growth_per_year () =
  let n = float_of_int (List.length data) in
  let sx, sy, sxy, sxx =
    List.fold_left
      (fun (sx, sy, sxy, sxx) p ->
        let x = float_of_int p.year and y = float_of_int p.syscalls in
        (sx +. x, sy +. y, sxy +. (x *. y), sxx +. (x *. x)))
      (0., 0., 0., 0.) data
  in
  ((n *. sxy) -. (sx *. sy)) /. ((n *. sxx) -. (sx *. sx))
