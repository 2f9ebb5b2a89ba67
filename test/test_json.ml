module J = Report.Json

let rec equal a b =
  match (a, b) with
  | J.Null, J.Null -> true
  | J.Bool x, J.Bool y -> x = y
  | J.Number x, J.Number y -> Float.abs (x -. y) <= 1e-12 *. Float.max 1.0 (Float.abs x)
  | J.String x, J.String y -> x = y
  | J.List x, J.List y -> List.length x = List.length y && List.for_all2 equal x y
  | J.Object x, J.Object y ->
      List.length x = List.length y
      && List.for_all2 (fun (k1, v1) (k2, v2) -> k1 = k2 && equal v1 v2) x y
  | _ -> false

let sample =
  J.Object
    [
      ("name", J.String "mcdft");
      ("pi", J.Number 3.14159);
      ("count", J.int 42);
      ("ok", J.Bool true);
      ("nothing", J.Null);
      ("list", J.List [ J.int 1; J.int 2; J.String "x\"y\\z" ]);
      ("nested", J.Object [ ("newline", J.String "a\nb") ]);
    ]

let test_roundtrip_compact () =
  match J.of_string (J.to_string sample) with
  | Ok parsed -> Alcotest.(check bool) "roundtrip" true (equal sample parsed)
  | Error e -> Alcotest.fail e

let test_roundtrip_pretty () =
  match J.of_string (J.to_string ~indent:2 sample) with
  | Ok parsed -> Alcotest.(check bool) "roundtrip" true (equal sample parsed)
  | Error e -> Alcotest.fail e

let test_parse_basics () =
  (match J.of_string {| {"a": [1, 2.5, -3e2], "b": "A"} |} with
  | Ok v -> (
      Alcotest.(check bool) "member a" true (J.member "a" v <> None);
      match J.member "b" v with
      | Some (J.String s) -> Alcotest.(check string) "unicode escape" "A" s
      | _ -> Alcotest.fail "b missing")
  | Error e -> Alcotest.fail e);
  (match J.of_string "[]" with
  | Ok (J.List []) -> ()
  | _ -> Alcotest.fail "empty list")

let test_parse_errors () =
  List.iter
    (fun bad ->
      match J.of_string bad with
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %S" bad)
      | Error _ -> ())
    [ "{"; "[1,"; "\"unterminated"; "nul"; "{\"a\" 1}"; "1 2"; "" ]

let test_ints_print_clean () =
  Alcotest.(check string) "int" "42" (J.to_string (J.int 42));
  Alcotest.(check string) "negative" "-7" (J.to_string (J.int (-7)))

let test_export_report () =
  let t =
    Mcdft_core.Pipeline.run ~points_per_decade:10 (Circuits.Tow_thomas.make ())
  in
  let json = Mcdft_core.Export.pipeline_to_json t (Mcdft_core.Pipeline.optimize t) in
  (* it parses back and carries the headline values *)
  match J.of_string (J.to_string ~indent:2 json) with
  | Error e -> Alcotest.fail e
  | Ok json -> (
      let v =
        match J.member "report" json with
        | Some v -> v
        | None -> Alcotest.fail "report missing"
      in
      (match J.member "max_coverage" v with
      | Some (J.Number c) -> Alcotest.(check (float 1e-9)) "coverage" 1.0 c
      | _ -> Alcotest.fail "max_coverage missing");
      match J.member "essential_configs" v with
      | Some (J.List [ J.Number c ]) -> Alcotest.(check (float 0.0)) "C2" 2.0 c
      | _ -> Alcotest.fail "essential missing")

let suite =
  [
    Alcotest.test_case "roundtrip compact" `Quick test_roundtrip_compact;
    Alcotest.test_case "roundtrip pretty" `Quick test_roundtrip_pretty;
    Alcotest.test_case "parse basics" `Quick test_parse_basics;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "ints clean" `Quick test_ints_print_clean;
    Alcotest.test_case "export report" `Quick test_export_report;
  ]
