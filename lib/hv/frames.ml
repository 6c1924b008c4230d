module Tbl = Hashtbl.Make (Int)

type t = {
  total_frames : int;
  frame_kb : int;
  mutable used_frames : int;
  held : int Tbl.t; (* owner -> frames *)
}

type error = ENOMEM

let frame_kb = 4

let frames_of_kb kb = (kb + frame_kb - 1) / frame_kb

let create ~total_kb =
  if total_kb <= 0 then invalid_arg "Frames.create: total_kb <= 0";
  {
    total_frames = frames_of_kb total_kb;
    frame_kb;
    used_frames = 0;
    held = Tbl.create 64;
  }

let total_kb t = t.total_frames * t.frame_kb
let used_kb t = t.used_frames * t.frame_kb
let free_kb t = (t.total_frames - t.used_frames) * t.frame_kb

let holding t owner =
  match Tbl.find t.held owner with n -> n | exception Not_found -> 0

let alloc t ~owner ~kb =
  let frames = frames_of_kb kb in
  if t.used_frames + frames > t.total_frames then Error ENOMEM
  else begin
    t.used_frames <- t.used_frames + frames;
    Tbl.replace t.held owner (holding t owner + frames);
    Ok ()
  end

let free t ~owner ~kb =
  let frames = frames_of_kb kb in
  let held = holding t owner in
  if frames > held then
    invalid_arg "Frames.free: owner does not hold that much memory";
  t.used_frames <- t.used_frames - frames;
  if held = frames then Tbl.remove t.held owner
  else Tbl.replace t.held owner (held - frames)

let free_all t ~owner =
  let held = holding t owner in
  t.used_frames <- t.used_frames - held;
  Tbl.remove t.held owner;
  held * t.frame_kb

let owned_kb t ~owner = holding t owner * t.frame_kb

let owners t =
  List.sort compare
    (Tbl.fold (fun k v acc -> (k, v * t.frame_kb) :: acc) t.held [])
