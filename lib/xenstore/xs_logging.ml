type t = {
  files : int;
  rotate_lines : int;
  on : bool;
  mutable current : int;
  mutable total : int;
  mutable rotations : int;
}

let create ?(files = 20) ?(rotate_lines = 13_215) ~enabled () =
  if files < 1 then invalid_arg "Xs_logging.create: files < 1";
  if rotate_lines < 1 then invalid_arg "Xs_logging.create: rotate_lines < 1";
  { files; rotate_lines; on = enabled; current = 0; total = 0; rotations = 0 }

let enabled t = t.on

let log_access t ~lines =
  if not t.on then false
  else begin
    t.current <- t.current + lines;
    t.total <- t.total + lines;
    if t.current >= t.rotate_lines then begin
      t.current <- 0;
      t.rotations <- t.rotations + 1;
      true
    end
    else false
  end

let total_lines t = t.total
let rotations t = t.rotations
let files t = t.files
