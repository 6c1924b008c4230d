type t = {
  on : bool;
  mutable current : int;
  mutable total : int;
  mutable rotations : int;
}

let files = 20
let rotate_lines = 13_215

let create ~enabled = { on = enabled; current = 0; total = 0; rotations = 0 }

let log_access t ~lines =
  if not t.on then false
  else begin
    t.current <- t.current + lines;
    t.total <- t.total + lines;
    if t.current >= rotate_lines then begin
      t.current <- 0;
      t.rotations <- t.rotations + 1;
      true
    end
    else false
  end

let total_lines t = t.total
let rotations t = t.rotations
