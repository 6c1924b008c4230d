(* Toolstack-side cost constants, calibrated against the paper:

   - Fig 4: first-guest create of 500 ms (Debian), 360 ms (Tinyx),
     80 ms (daytime unikernel) under xl.
   - Fig 5: under xl, device creation (hotplug scripts, udev) and the
     XenStore dominate; toolstack bookkeeping is the next slice.
   - Fig 9: chaos [XS] starts ~15 ms; chaos+noxs+split reaches ~4 ms
     with growth of only ~0.1 ms over 1000 guests.
   - Section 5.3: "launching and executing bash scripts is a slow
     process taking tens of milliseconds". *)

type t = {
  (* Phase 2: compute allocation. *)
  compute_alloc : float;
  (* Phase 6: configuration parsing (plus a per-byte term for real
     parsing of the config text). *)
  config_parse_base : float;
  config_parse_per_byte : float;
  (* xl/libxl bookkeeping per create: lock files, JSON state, event
     registration. chaos keeps only a small in-memory record. *)
  xl_bookkeeping : float;
  chaos_bookkeeping : float;
  (* xl-only extras: PV console setup and device-model checks. *)
  xl_console_setup : float;
  (* libxl's bzImage/pygrub handling for full Linux guests (fixed part
     on top of the size-proportional load). *)
  xl_pv_build_extra : float;
  (* How many times each toolstack resolves a domain name by scanning
     all guests (libxl_name_to_domid does a directory walk with one
     read per guest). *)
  xl_name_scans : int;
  chaos_name_scans : int;
  (* Device hotplug (Section 5.3). *)
  hotplug_script_vif : float;
  hotplug_script_vbd : float;
  udev_settle : float;
  xendevd_per_device : float;
  (* Failure handling: the toolstack's watchdog on a wedged hotplug
     script (xl's real default is tens of seconds; scaled down so fault
     experiments stay in the creation-time regime), and xendevd's
     requeue-on-failure behaviour. *)
  hotplug_timeout : float;
  xendevd_requeue_delay : float;
  xendevd_requeue_limit : int;
  (* Backend work. *)
  backend_ioctl : float; (* noxs device pre-creation ioctl *)
  backend_connect_work : float; (* Dom0 CPU per device handshake *)
  (* Toolstack floor on guest memory without the paper's patch. *)
  min_mem_mb : float;
  (* Checkpointing (Section 6.2): ramdisk dump/read rates and the
     standard toolstack's fixed save/restore bookkeeping. *)
  save_dump_mbps : float;
  restore_read_mbps : float;
  xl_save_overhead : float;
  xl_restore_overhead : float;
  chaos_save_overhead : float;
  chaos_restore_overhead : float;
  (* noxs device teardown is not yet optimized (Section 6.2). *)
  noxs_device_destroy : float;
  (* Migration. *)
  migration_bw_mbps : float; (* host-to-host link, MB/s (1 Gbps ~ 117) *)
  migration_rtt : float;
  migration_handshake_rtts : int; (* connection setup + config + acks *)
  migration_daemon_overhead : float;
}

let default =
  {
    compute_alloc = 0.4e-3;
    config_parse_base = 0.5e-3;
    config_parse_per_byte = 1.0e-6;
    xl_bookkeeping = 28.0e-3;
    chaos_bookkeeping = 1.6e-3;
    xl_console_setup = 9.0e-3;
    xl_pv_build_extra = 115.0e-3;
    xl_name_scans = 5;
    chaos_name_scans = 0;
    hotplug_script_vif = 42.0e-3;
    hotplug_script_vbd = 160.0e-3;
    udev_settle = 14.0e-3;
    xendevd_per_device = 0.45e-3;
    hotplug_timeout = 250.0e-3;
    xendevd_requeue_delay = 1.0e-3;
    xendevd_requeue_limit = 3;
    backend_ioctl = 0.12e-3;
    backend_connect_work = 0.18e-3;
    min_mem_mb = 4.0;
    save_dump_mbps = 150.;
    restore_read_mbps = 260.;
    xl_save_overhead = 95.0e-3;
    xl_restore_overhead = 420.0e-3;
    chaos_save_overhead = 3.0e-3;
    chaos_restore_overhead = 4.0e-3;
    noxs_device_destroy = 4.5e-3;
    migration_bw_mbps = 117.;
    migration_rtt = 0.2e-3;
    migration_handshake_rtts = 3;
    migration_daemon_overhead = 2.0e-3;
  }

(* A wide-area link: 1 Gbps with a 10 ms RTT — Section 7.1 reports
   migrating a ClickOS VM over such a link in ~150 ms. *)
let wan = { default with migration_rtt = 10.0e-3 }
