let test_table_render () =
  let s =
    Report.Table.render ~header:[ "name"; "value" ]
      [ [ "alpha"; "1" ]; [ "b"; "22" ] ]
  in
  let lines = String.split_on_char '\n' s in
  Alcotest.(check int) "header + rule + 2 rows" 4 (List.length lines);
  (* all lines equal width *)
  let widths = List.map String.length lines in
  List.iter (fun w -> Alcotest.(check int) "aligned" (List.hd widths) w) widths

let test_table_arity_check () =
  Alcotest.check_raises "bad row" (Invalid_argument "Table.render: row 0 has wrong arity")
    (fun () -> ignore (Report.Table.render ~header:[ "a"; "b" ] [ [ "x" ] ]))

let test_bars () =
  let s =
    Report.Chart.bars ~width:10 ~labels:[| "fR1" |]
      ~series:[ ("no-DFT", [| 0.0 |]); ("DFT", [| 100.0 |]) ]
      ()
  in
  Alcotest.(check bool) "full bar present" true
    (String.split_on_char '\n' s |> List.exists (fun l ->
         String.length l > 0
         && String.exists (( = ) '*') l))

let test_bars_mismatch () =
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Chart.bars: series length mismatch") (fun () ->
      ignore (Report.Chart.bars ~labels:[| "a" |] ~series:[ ("s", [| 1.0; 2.0 |]) ] ()))

let test_sparkline () =
  Alcotest.(check string) "empty" "" (Report.Chart.sparkline [||]);
  let s = Report.Chart.sparkline [| 0.0; 0.5; 1.0 |] in
  Alcotest.(check int) "one char per point" 3 (String.length s)

let suite =
  [
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "table arity" `Quick test_table_arity_check;
    Alcotest.test_case "bars" `Quick test_bars;
    Alcotest.test_case "bars mismatch" `Quick test_bars_mismatch;
    Alcotest.test_case "sparkline" `Quick test_sparkline;
  ]
