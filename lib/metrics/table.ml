type t = {
  title : string;
  columns : string list;
  mutable rev_rows : string list list;
}

let create ~title ~columns = { title; columns; rev_rows = [] }

let add_row t row =
  if List.length row <> List.length t.columns then
    invalid_arg "Table.add_row: wrong number of cells";
  t.rev_rows <- row :: t.rev_rows

let rows t = List.rev t.rev_rows

let pp fmt t =
  let all = t.columns :: rows t in
  let ncols = List.length t.columns in
  let widths = Array.make ncols 0 in
  List.iter
    (fun row ->
      List.iteri
        (fun i cell -> widths.(i) <- max widths.(i) (String.length cell))
        row)
    all;
  let pp_row row =
    List.iteri
      (fun i cell ->
        let pad = widths.(i) - String.length cell in
        Format.fprintf fmt "%s%s%s" cell (String.make pad ' ')
          (if i = ncols - 1 then "" else "  "))
      row;
    Format.fprintf fmt "@\n"
  in
  Format.fprintf fmt "== %s ==@\n" t.title;
  pp_row t.columns;
  let total =
    Array.fold_left ( + ) 0 widths + (2 * (ncols - 1))
  in
  Format.fprintf fmt "%s@\n" (String.make total '-');
  List.iter pp_row (rows t)

let to_string t = Format.asprintf "%a" pp t
