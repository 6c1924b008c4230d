module Params = Lightvm_hv.Params
module Frames = Lightvm_hv.Frames
module Cpu = Lightvm_sim.Cpu

type t = {
  platform : Params.platform;
  cpu : Cpu.t;
  mem : Frames.t;
}

let kernel_owner = -1

let kernel_mem_kb = 600 * 1024 (* host kernel + base system *)

let create ?(platform = Params.xeon_e5_1630) () =
  let mem = Frames.create ~total_kb:(platform.Params.ram_mb * 1024) in
  (match Frames.alloc mem ~owner:kernel_owner ~kb:kernel_mem_kb with
  | Ok () -> ()
  | Error Frames.ENOMEM -> invalid_arg "Machine.create: host too small");
  {
    platform;
    cpu =
      Cpu.create ~speed:platform.Params.speed ~ncores:platform.Params.cores
        ();
    mem;
  }

let cpu t = t.cpu
let mem t = t.mem

let consume_any t work =
  let core = Cpu.least_loaded t.cpu ~first:0 ~count:t.platform.Params.cores in
  Cpu.consume t.cpu ~core work
