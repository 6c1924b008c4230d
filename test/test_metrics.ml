(* Tests for the metrics library: series, tables, quantiles. *)

module Series = Lightvm_metrics.Series
module Table = Lightvm_metrics.Table
module Quantiles = Lightvm_metrics.Quantiles

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

(* ------------------------------------------------------------------ *)
(* Series *)

let test_series_basics () =
  let s = Series.create ~unit_label:"ms" ~name:"test" () in
  Series.add s ~x:1. ~y:10.;
  Series.add s ~x:2. ~y:30.;
  Series.add s ~x:3. ~y:20.;
  Alcotest.(check int) "length" 3 (Series.length s);
  Alcotest.(check string) "name" "test" (Series.name s);
  Alcotest.(check (option (float 1e-9))) "last y" (Some 20.)
    (Series.last_y s);
  Alcotest.(check (float 1e-9)) "max" 30. (Series.max_y s);
  Alcotest.(check (float 1e-9)) "min" 10. (Series.min_y s);
  Alcotest.(check (option (float 1e-9))) "y_at" (Some 30.)
    (Series.y_at s ~x:2.);
  Alcotest.(check (option (float 1e-9))) "y_at miss" None
    (Series.y_at s ~x:9.)

(* ------------------------------------------------------------------ *)
(* Table *)

let test_table () =
  let t = Table.create ~title:"T" ~columns:[ "a"; "bb" ] in
  Table.add_row t [ "x"; "y" ];
  Table.add_row t [ "1.5"; "2" ];
  Alcotest.(check int) "rows" 2 (List.length (Table.rows t));
  let rendered = Table.to_string t in
  Alcotest.(check bool) "contains title" true
    (String.length rendered > 0
    && Astring_check.contains rendered "== T ==");
  Alcotest.(check bool) "contains cells" true
    (Astring_check.contains rendered "1.5");
  Alcotest.check_raises "arity enforced"
    (Invalid_argument "Table.add_row: wrong number of cells") (fun () ->
      Table.add_row t [ "only-one" ])

(* ------------------------------------------------------------------ *)
(* CDF points (fig16b renders every point) *)

let prop_cdf_monotone =
  QCheck.Test.make ~name:"cdf is monotone and ends at 1" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 40) (float_bound_exclusive 10.))
    (fun xs ->
      let q = Quantiles.create () in
      List.iter (Quantiles.add q) xs;
      let pts = Quantiles.sorted_points q ~every:1 in
      let rec monotone = function
        | (x1, f1) :: ((x2, f2) :: _ as rest) ->
            x1 <= x2 && f1 <= f2 && monotone rest
        | _ -> true
      in
      monotone pts
      && feq (snd (List.nth pts (List.length pts - 1))) 1.)

let suites =
  [
    ( "metrics.series",
      [ Alcotest.test_case "basics" `Quick test_series_basics ] );
    ( "metrics.table", [ Alcotest.test_case "render" `Quick test_table ] );
    ( "metrics.cdf", [ QCheck_alcotest.to_alcotest prop_cdf_monotone ] );
  ]
