(* Toolstack configuration knobs — the axes of the paper's Figure 9.

   Each LightVM mechanism can be enabled independently:
   - [impl]: the standard xl/libxl toolstack vs the lean chaos/libchaos
   - [registry]: classic XenStore vs noxs device pages
   - [split]: pre-created VM shells from the chaos daemon pool (Fig 8)
   - [hotplug]: forked bash scripts vs the xendevd binary daemon
   - [min_mem_patch]: lift the 4 MB minimum-memory floor (footnote 1) *)

type toolstack_impl = Xl | Chaos

type registry_kind = Xenstore | Noxs

type hotplug_kind = Script | Xendevd

type t = {
  impl : toolstack_impl;
  registry : registry_kind;
  split : bool;
  hotplug : hotplug_kind;
  min_mem_patch : bool;
}

(* Out-of-the-box Xen: the paper's "xl" curve. *)
let xl =
  {
    impl = Xl;
    registry = Xenstore;
    split = false;
    hotplug = Script;
    min_mem_patch = false;
  }

(* chaos toolstack, still on the XenStore. *)
let chaos_xs =
  {
    impl = Chaos;
    registry = Xenstore;
    split = false;
    hotplug = Xendevd;
    min_mem_patch = true;
  }

let chaos_xs_split = { chaos_xs with split = true }

let chaos_noxs = { chaos_xs with registry = Noxs }

(* All optimizations on: chaos + noxs + split toolstack. *)
let lightvm = { chaos_xs with registry = Noxs; split = true }

let all_modes =
  [ xl; chaos_xs; chaos_xs_split; chaos_noxs; lightvm ]

let name t =
  match (t.impl, t.registry, t.split) with
  | Xl, _, _ -> "xl"
  | Chaos, Xenstore, false -> "chaos [XS]"
  | Chaos, Xenstore, true -> "chaos [XS+split]"
  | Chaos, Noxs, false -> "chaos [NoXS]"
  | Chaos, Noxs, true -> "LightVM"

(* CLI-safe spelling of [name] ("chaos [XS]" -> "chaos-xs"): the
   [boot --mode] values and the mode part of snapshot keys. *)
let slug t =
  match (t.impl, t.registry, t.split) with
  | Xl, _, _ -> "xl"
  | Chaos, Xenstore, false -> "chaos-xs"
  | Chaos, Xenstore, true -> "chaos-xs-split"
  | Chaos, Noxs, false -> "chaos-noxs"
  | Chaos, Noxs, true -> "lightvm"

let of_slug s = List.find_opt (fun m -> String.equal (slug m) s) all_modes
