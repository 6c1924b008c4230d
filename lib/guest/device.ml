module Xs_path = Lightvm_xenstore.Xs_path

type kind = Vif | Vbd | Sysctl

type config = {
  kind : kind;
  devid : int;
  backend_domid : int;
  detail : string;
}

let vif ?(backend_domid = 0) ?(bridge = "xenbr0") ~devid () =
  { kind = Vif; devid; backend_domid; detail = "bridge=" ^ bridge }

let vbd ?(backend_domid = 0) ?(target = "ramdisk") ~devid () =
  { kind = Vbd; devid; backend_domid; detail = "target=" ^ target }

let sysctl ?(backend_domid = 0) () =
  { kind = Sysctl; devid = 0; backend_domid; detail = "power" }

let kind_to_string = function
  | Vif -> "vif"
  | Vbd -> "vbd"
  | Sysctl -> "sysctl"

let devpage_kind = function
  | Vif -> Lightvm_hv.Devpage.Vif
  | Vbd -> Lightvm_hv.Devpage.Vbd
  | Sysctl -> Lightvm_hv.Devpage.Sysctl

let frontend_dir ~domid c =
  Xs_path.(
    domain_path domid / "device" / kind_to_string c.kind
    / string_of_int c.devid)

let backend_domain_dir ~domid c =
  Xs_path.(
    domain_path c.backend_domid / "backend" / kind_to_string c.kind
    / string_of_int domid)

let backend_dir ~domid c =
  Xs_path.concat (backend_domain_dir ~domid c) (string_of_int c.devid)
