module Engine = Lightvm_sim.Engine
module Xen = Lightvm_hv.Xen
module Params = Lightvm_hv.Params
module Xs_client = Lightvm_xenstore.Xs_client
module Xs_error = Lightvm_xenstore.Xs_error
module Guest = Lightvm_guest.Guest
module Image = Lightvm_guest.Image
module Trace = Lightvm_trace.Trace

type saved = {
  sv_config : Vmconfig.t;
  sv_image : Image.t;
  sv_mem_mb : float;
}

let saved_name s = s.sv_config.Vmconfig.name
let saved_mem_mb s = s.sv_mem_mb

let is_xl ts = (Toolstack.mode ts).Mode.impl = Mode.Xl

let uses_xenstore ts =
  (Toolstack.mode ts).Mode.registry = Mode.Xenstore

(* Ask the guest to suspend and wait for it to quiesce. *)
let trigger_suspend ts (created : Create.created) =
  let env = Toolstack.env ts in
  let domid = created.Create.domid in
  if uses_xenstore ts then
    (* Classic path: write the control node; the guest's xenbus driver
       reacts; several store round-trips. *)
    Xs_client.write env.Create.xs (Create.shutdown_path domid) "suspend"
  else begin
    (* noxs: an ioctl to the sysctl back-end flips the shared page and
       kicks the event channel. *)
    let costs = Xen.costs env.Create.xen in
    Xen.consume_dom0 env.Create.xen 60.0e-6;
    Xen.hypercall ~op:"evtchn_op" env.Create.xen ~cost:costs.Params.evtchn_op
  end;
  (* Guest-side quiesce: save internal state, unbind channels/pages. *)
  Guest.shutdown created.Create.guest;
  ignore (Xen.shutdown env.Create.xen ~domid ~reason:Lightvm_hv.Domain.Suspend)

(* Suspend the guest, charge the toolstack's save bookkeeping and,
   with [dump], the write of its memory to the ramdisk, then destroy
   the domain. A migration skips the dump: the memory is streamed. *)
let suspend ts (created : Create.created) ~dump =
  let env = Toolstack.env ts in
  let costs = Toolstack.costs ts in
  trigger_suspend ts created;
  Trace.charge ~category:"checkpoint.save_overhead"
    (if is_xl ts then costs.Costs.xl_save_overhead
     else costs.Costs.chaos_save_overhead);
  let mem_mb = Create.effective_mem_mb env created.Create.config in
  if dump then
    Trace.charge ~category:"checkpoint.dump"
      (mem_mb /. costs.Costs.save_dump_mbps);
  let saved =
    {
      sv_config = created.Create.config;
      sv_image = Guest.image created.Create.guest;
      sv_mem_mb = mem_mb;
    }
  in
  Create.destroy env created;
  saved

let save ts created = suspend ts created ~dump:true

(* A restored guest does not reboot its kernel: frontends reconnect and
   execution continues. *)
let restored_image (img : Image.t) =
  {
    img with
    Image.name = img.Image.name;
    kernel_init_work = 0.25e-3;
    app_init_work = 0.1e-3;
    kernel_mb = 0.; (* no image build on restore *)
  }

let rebuild ts saved ~skip_read =
  let env = Toolstack.env ts in
  let costs = Toolstack.costs ts in
  Trace.charge ~category:"checkpoint.restore_overhead"
    (if is_xl ts then costs.Costs.xl_restore_overhead
     else costs.Costs.chaos_restore_overhead);
  if not skip_read then
    (* Read the dump back from the ramdisk. *)
    Trace.charge ~category:"checkpoint.read"
      (saved.sv_mem_mb /. costs.Costs.restore_read_mbps);
  (* Rebuild the domain and devices through the normal create pipeline,
     with a "restored" image so the guest reconnects instead of
     rebooting. *)
  let image = restored_image saved.sv_image in
  Create.create env ~image_override:image saved.sv_config

let restore ts saved = rebuild ts saved ~skip_read:false

let suspend_for_transfer ts created = suspend ts created ~dump:false

let resume_from_transfer ts saved = rebuild ts saved ~skip_read:true
