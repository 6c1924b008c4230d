type layer = {
  digest : string;
  size_kb : int;
}

type image = {
  image_name : string;
  layers : layer list;
}

type store = { known : (string, layer) Hashtbl.t }

let create_store () = { known = Hashtbl.create 16 }

let pull store image =
  List.fold_left
    (fun acc layer ->
      if Hashtbl.mem store.known layer.digest then acc
      else begin
        Hashtbl.replace store.known layer.digest layer;
        acc + layer.size_kb
      end)
    0 image.layers

let alpine_base = { digest = "sha256:alpine-base"; size_kb = 4_900 }

let micropython_image =
  {
    image_name = "micropython";
    layers =
      [ alpine_base; { digest = "sha256:mpy-bin"; size_kb = 760 } ];
  }

let alpine_noop =
  {
    image_name = "alpine-noop";
    layers = [ alpine_base; { digest = "sha256:noop"; size_kb = 12 } ];
  }
