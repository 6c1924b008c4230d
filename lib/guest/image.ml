type kind =
  | Unikernel of string
  | Tinyx of string option
  | Debian

type t = {
  name : string;
  kind : kind;
  disk_mb : float;
  kernel_mb : float;
  mem_mb : float;
  kernel_init_work : float;
  app_init_work : float;
  idle_tick_period : float;
  idle_tick_work : float;
}

let boot_work t = t.kernel_init_work +. t.app_init_work

let idle_load t =
  if t.idle_tick_period = infinity then 0.
  else t.idle_tick_work /. t.idle_tick_period

let with_inflated_image t ~extra_mb =
  {
    t with
    name = Printf.sprintf "%s+%.0fMB" t.name extra_mb;
    disk_mb = t.disk_mb +. extra_mb;
    kernel_mb = t.kernel_mb +. extra_mb;
  }

(* MiniOS guests: no background tasks at all when idle ("idling ...
   unikernels do not run such background tasks", Section 6.1). *)
let unikernel ~name ~app ~disk_mb ~mem_mb ~kernel_init_work ~app_init_work =
  {
    name;
    kind = Unikernel app;
    disk_mb;
    kernel_mb = disk_mb;
    mem_mb;
    kernel_init_work;
    app_init_work;
    idle_tick_period = infinity;
    idle_tick_work = 0.;
  }

let noop_unikernel =
  unikernel ~name:"noop" ~app:"noop" ~disk_mb:0.28 ~mem_mb:3.6
    ~kernel_init_work:0.8e-3 ~app_init_work:0.1e-3

let daytime =
  (* 480 KB uncompressed image, 3.6 MB RAM, ~3 ms guest boot (device
     bring-up adds its own work on top of these). *)
  unikernel ~name:"daytime" ~app:"daytime" ~disk_mb:0.48 ~mem_mb:3.6
    ~kernel_init_work:0.6e-3 ~app_init_work:0.5e-3

let minipython =
  unikernel ~name:"minipython" ~app:"micropython" ~disk_mb:1.0 ~mem_mb:8.
    ~kernel_init_work:1.2e-3 ~app_init_work:1.4e-3

let clickos_firewall =
  unikernel ~name:"clickos-fw" ~app:"click-firewall" ~disk_mb:1.7 ~mem_mb:8.
    ~kernel_init_work:2.0e-3 ~app_init_work:5.0e-3

let tls_unikernel =
  unikernel ~name:"tls-unikernel" ~app:"axtls-proxy" ~disk_mb:1.2 ~mem_mb:16.
    ~kernel_init_work:1.5e-3 ~app_init_work:2.5e-3

(* Tinyx: a minimal Linux needs kernel init plus BusyBox init, and even
   when idle runs occasional kernel background work (the Fig 11 boot
   time growth past ~250 VMs/core comes from exactly this). *)
let tinyx_base ~name ~app ~disk_mb ~mem_mb ~boot_s ~app_init =
  {
    name;
    kind = Tinyx app;
    disk_mb;
    kernel_mb = disk_mb; (* distribution bundled as initramfs *)
    mem_mb;
    kernel_init_work = boot_s;
    app_init_work = app_init;
    idle_tick_period = 0.1;
    (* ~0.005%% of a core per idle VM: 1000 Tinyx guests keep about 1%%
       of the 4-core machine busy (Fig 15). *)
    idle_tick_work = 5.0e-6;
  }

let tinyx =
  tinyx_base ~name:"tinyx" ~app:None ~disk_mb:9.5 ~mem_mb:30. ~boot_s:0.16
    ~app_init:0.005

let tinyx_micropython =
  tinyx_base ~name:"tinyx-micropython" ~app:(Some "micropython")
    ~disk_mb:10.5 ~mem_mb:32. ~boot_s:0.16 ~app_init:0.012

let tinyx_tls =
  tinyx_base ~name:"tinyx-tls" ~app:(Some "axtls-proxy") ~disk_mb:12.
    ~mem_mb:40. ~boot_s:0.165 ~app_init:0.02

(* Minimal Debian jessie: 1.1 GB disk of which the builder loads the
   kernel + initrd; 1.5 s boot dominated by systemd services; idle
   services keep ~0.075% of a core busy (Fig 15: 1000 VMs ~ 25% of the
   4-core machine). *)
let debian =
  {
    name = "debian";
    kind = Debian;
    disk_mb = 1126.;
    kernel_mb = 45.;
    mem_mb = 111.;
    kernel_init_work = 0.55;
    app_init_work = 0.9;
    idle_tick_period = 0.25;
    (* ~0.1%% of a core per idle Debian VM: 1000 of them use ~25%% of
       the 4-core machine (Fig 15). *)
    idle_tick_work = 250.0e-6;
  }

let all =
  [
    noop_unikernel;
    daytime;
    minipython;
    clickos_firewall;
    tls_unikernel;
    tinyx;
    tinyx_micropython;
    tinyx_tls;
    debian;
  ]

let rec find_in name = function
  | [] -> None
  | i :: rest -> if String.equal i.name name then Some i else find_in name rest

let find name = find_in name all
