module Engine = Lightvm_sim.Engine
module Xen = Lightvm_hv.Xen
module Params = Lightvm_hv.Params
module Xs_client = Lightvm_xenstore.Xs_client
module Xs_error = Lightvm_xenstore.Xs_error
module Guest = Lightvm_guest.Guest
module Image = Lightvm_guest.Image

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

let detach_and_destroy ts (created : Create.created) =
  Create.destroy (Toolstack.env ts) created;
  Toolstack.unregister_vm ts ~domid:created.Create.domid

let make_saved (created : Create.created) =
  {
    sv_config = created.Create.config;
    sv_image = created.Create.guest |> Guest.image;
    sv_mem_mb =
      (match Vmconfig.image created.Create.config with
      | Some img -> img.Image.mem_mb
      | None -> created.Create.config.Vmconfig.memory_mb);
  }

let save ts created =
  let env = Toolstack.env ts in
  let costs = Toolstack.costs ts in
  trigger_suspend ts created;
  (* Toolstack bookkeeping around the save. *)
  Costs.charge ~category:"checkpoint.save_overhead"
    (if is_xl ts then costs.Costs.xl_save_overhead
     else costs.Costs.chaos_save_overhead);
  (* Dump guest memory to the ramdisk. *)
  let mem_mb = Create.effective_mem_mb env created.Create.config in
  Costs.charge ~category:"checkpoint.dump" (mem_mb /. costs.Costs.save_dump_mbps);
  let saved = { (make_saved created) with sv_mem_mb = mem_mb } in
  detach_and_destroy ts created;
  saved

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
  Costs.charge ~category:"checkpoint.restore_overhead"
    (if is_xl ts then costs.Costs.xl_restore_overhead
     else costs.Costs.chaos_restore_overhead);
  if not skip_read then
    (* Read the dump back from the ramdisk. *)
    Costs.charge ~category:"checkpoint.read"
      (saved.sv_mem_mb /. costs.Costs.restore_read_mbps);
  (* Rebuild the domain and devices through the normal create pipeline,
     with a "restored" image so the guest reconnects instead of
     rebooting. *)
  let image = restored_image saved.sv_image in
  let created = Create.create_with_image env saved.sv_config ~image in
  Toolstack.register_vm ts created;
  created

let restore ts saved = rebuild ts saved ~skip_read:false

let suspend_for_transfer ts created =
  trigger_suspend ts created;
  let costs = Toolstack.costs ts in
  Costs.charge ~category:"checkpoint.save_overhead"
    (if is_xl ts then costs.Costs.xl_save_overhead
     else costs.Costs.chaos_save_overhead);
  let env = Toolstack.env ts in
  let mem_mb = Create.effective_mem_mb env created.Create.config in
  let saved = { (make_saved created) with sv_mem_mb = mem_mb } in
  detach_and_destroy ts created;
  saved

let resume_from_transfer ts saved = rebuild ts saved ~skip_read:true
