(* Density: pack unikernels onto a host until memory runs out, and
   compare with a Docker engine on the same box (Fig 10 in miniature).

   Run with: dune exec examples/density.exe *)

module Engine = Lightvm_sim.Engine
module Params = Lightvm_hv.Params
module Xen = Lightvm_hv.Xen
module Image = Lightvm_guest.Image
module Mode = Lightvm_toolstack.Mode
module Create = Lightvm_toolstack.Create
module Machine = Lightvm_container.Machine
module Docker = Lightvm_container.Docker
module Layers = Lightvm_container.Layers
module Vmm = Lightvm_cluster.Vmm

(* A deliberately small host so the example finishes instantly: 16 GB. *)
let platform = { Params.xeon_e5_1630 with Params.ram_mb = 16 * 1024 }

let () =
  ignore
    (Engine.run (fun () ->
         (* LightVM guests until out of memory. *)
         let host = Vmm.create ~platform ~mode:Mode.lightvm () in
         let booted = ref 0 in
         (try
            while true do
              match
                Vmm.vm_create host
                  (Vmm.vm_request ~nics:0 Image.noop_unikernel)
              with
              | Ok vi ->
                  ignore (Vmm.vm_boot host ~domid:vi.Vmm.vi_domid);
                  incr booted
              | Error _ -> raise Exit
            done
          with Exit -> ());
         Printf.printf
           "LightVM: %d noop unikernels on a 16 GB host (%.1f MB/guest \
            incl. hypervisor overhead)\n"
           !booted
           (float_of_int (Vmm.guest_mem_kb host)
           /. 1024. /. float_of_int !booted);

         (* Docker on the same hardware. *)
         let machine = Machine.create ~platform () in
         let engine = Docker.create machine in
         let containers = ref 0 in
         (try
            while true do
              match Docker.run engine ~image:Layers.alpine_noop () with
              | Ok _ -> incr containers
              | Error _ -> raise Exit
            done
          with Exit -> ());
         Printf.printf
           "Docker:  %d containers before the engine wedged (thin-pool \
            reservations: %.1f GB)\n"
           !containers
           (float_of_int (Docker.reserved_kb engine) /. 1024. /. 1024.);
         Printf.printf
           "\n(The paper packs 8000 unikernels on a 128 GB machine while \
            Docker stops\n near 3000 — scale the host up to reproduce \
            Fig 10 via the bench harness.)\n";
         Engine.stop ()))
