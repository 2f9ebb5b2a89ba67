(* Edge cases and small behaviours across modules that deserve pinning
   but do not warrant their own suite. *)

module Netlist = Circuit.Netlist
module Element = Circuit.Element

(* --- util --- *)

let test_quantity_suffix_priority () =
  let parse_exn s = Result.get_ok (Util.Quantity.parse s) in
  (* "meg" must win over "m" *)
  Alcotest.(check (float 0.0)) "1m is milli" 1e-3 (parse_exn "1m");
  Alcotest.(check (float 0.0)) "1meg is mega" 1e6 (parse_exn "1meg");
  Alcotest.(check (float 1e-12)) "mil is 25.4u" 25.4e-6 (parse_exn "1mil");
  Alcotest.(check (float 0.0)) "exponent beats suffix" 1e-3
    (parse_exn "1e-3")

(* --- linalg --- *)

let test_cmat_one_by_one () =
  let module Cmat = Linalg.Cmat in
  let b = Complex.{ re = 8.0; im = 0.0 } in
  let m = Cmat.of_arrays [| [| Complex.{ re = 4.0; im = 0.0 } |] |] in
  let x = Cmat.solve m [| b |] in
  Alcotest.(check (float 1e-12)) "scalar solve" 2.0 x.(0).Complex.re;
  Alcotest.(check (float 1e-12)) "residual" 0.0
    (Complex.norm (Complex.sub (Complex.mul (Cmat.get m 0 0) x.(0)) b))

let test_poly_corner_cases () =
  Alcotest.(check string) "zero prints" "0" (Format.asprintf "%a" Linalg.Poly.pp (Linalg.Poly.of_coeffs [||]));
  Alcotest.(check int) "no roots of constants" 0
    (Array.length (Linalg.Poly.roots Linalg.Poly.one));
  (* 2 + 4x^2 is normalized by its leading 4 before the iteration:
     roots ±j/sqrt 2 *)
  let roots = Linalg.Poly.roots (Linalg.Poly.of_coeffs [| 2.0; 0.0; 4.0 |]) in
  Alcotest.(check int) "two roots" 2 (Array.length roots);
  Array.iter
    (fun r ->
      Alcotest.(check (float 1e-9)) "root on the imaginary axis" 0.0 r.Complex.re;
      Alcotest.(check (float 1e-9)) "|root| = 1/sqrt 2" (1.0 /. sqrt 2.0) (Complex.norm r))
    roots

(* --- circuit --- *)

let test_element_with_value_errors () =
  let op = Element.Opamp { name = "OP"; inp = "a"; inn = "b"; out = "c"; model = Element.Ideal } in
  Alcotest.check_raises "ideal opamp has no value"
    (Invalid_argument "Element.with_value: ideal opamp has no scalar parameter")
    (fun () -> ignore (Element.with_value op 2.0));
  Alcotest.(check bool) "no value" true (Element.value op = None)

let test_single_pole_value_is_gain () =
  let op =
    Element.Opamp
      { name = "OP"; inp = "a"; inn = "b"; out = "c";
        model = Element.Single_pole { dc_gain = 5.0; pole_hz = 10.0 } }
  in
  Alcotest.(check bool) "value is dc gain" true (Element.value op = Some 5.0);
  match Element.with_value op 7.0 with
  | Element.Opamp { model = Element.Single_pole { dc_gain; _ }; _ } ->
      Alcotest.(check (float 0.0)) "updated" 7.0 dc_gain
  | _ -> Alcotest.fail "shape changed"

(* --- mna --- *)

let test_magnitude_db () =
  Alcotest.(check (float 1e-9)) "0 dB" 0.0 (Mna.Ac.magnitude_db Complex.one);
  Alcotest.(check (float 1e-9)) "-20 dB" (-20.0)
    (Mna.Ac.magnitude_db Complex.{ re = 0.1; im = 0.0 });
  Alcotest.(check bool) "zero is -inf" true
    (Mna.Ac.magnitude_db Complex.zero = neg_infinity)

let test_dc_with_nominal_sources () =
  let n =
    Netlist.empty ()
    |> Netlist.vsource ~name:"V1" "a" "0" 2.0
    |> Netlist.resistor ~name:"R1" "a" "b" 1000.0
    |> Netlist.resistor ~name:"R2" "b" "0" 1000.0
  in
  (* at omega = 0 the network is resistive: the DC operating point *)
  let sol = Mna.Ac.solve n ~omega:0.0 in
  Alcotest.(check (float 1e-12)) "declared amplitude used" 1.0 (Mna.Ac.voltage sol "b").Complex.re

let test_symbolic_output_ground_rejected () =
  let n =
    Netlist.empty ()
    |> Netlist.vsource ~name:"V1" "a" "0" 1.0
    |> Netlist.resistor ~name:"R1" "a" "0" 1.0
  in
  Alcotest.check_raises "ground output"
    (Invalid_argument "Symbolic.transfer: output node is ground") (fun () ->
      ignore (Mna.Symbolic.transfer ~source:"V1" ~output:"0" n))

(* --- cover --- *)

let test_solver_empty_problem () =
  let p = Cover.Clause.of_sets ~n_candidates:5 [] in
  Alcotest.(check bool) "exact empty" true
    (Cover.Clause.IntSet.is_empty (Cover.Solver.(cover_exn (exact p))));
  Alcotest.(check bool) "greedy empty" true
    (Cover.Clause.IntSet.is_empty (Cover.Solver.(cover_exn (greedy p))));
  Alcotest.(check (float 0.0)) "zero cost" 0.0
    (Cover.Solver.cost_of Cover.Clause.IntSet.empty)

let test_mapping_empty () =
  Alcotest.(check int) "no terms" 0 (List.length (Cover.Mapping.xi_star []))

(* --- spice --- *)

let test_spice_directives_and_case () =
  let n =
    match
      Spice.Parser.parse_string
        "t\n.TITLE whatever\nr1 a 0 1K\nl1 a b 1M\n.AC DEC 10 1 1e6\nC1 b 0 1U\n.END\n"
    with
    | Ok n -> n
    | Error e -> Alcotest.fail (Spice.Parser.error_to_string e)
  in
  Alcotest.(check int) "three elements" 3 (Netlist.size n);
  (match Netlist.find_exn n "l1" with
  | Element.Inductor { value; _ } ->
      Alcotest.(check (float 0.0)) "1M is milli-henry" 1e-3 value
  | _ -> Alcotest.fail "l1 wrong kind")

(* --- multiconfig --- *)

let test_sequence_trivial () =
  Alcotest.(check (list int)) "empty" [] (Multiconfig.Sequence.order []);
  Alcotest.(check (list int)) "singleton" [ 5 ] (Multiconfig.Sequence.order [ 5 ]);
  Alcotest.(check int) "cost from C0" 2 (Multiconfig.Sequence.switch_cost [ 3 ])

(* --- report --- *)

let test_json_member_non_object () =
  Alcotest.(check bool) "list has no members" true
    (Report.Json.member "x" (Report.Json.List []) = None)

let suite =
  [
    Alcotest.test_case "quantity suffixes" `Quick test_quantity_suffix_priority;
    Alcotest.test_case "cmat 1x1" `Quick test_cmat_one_by_one;
    Alcotest.test_case "poly corners" `Quick test_poly_corner_cases;
    Alcotest.test_case "element with_value" `Quick test_element_with_value_errors;
    Alcotest.test_case "single-pole value" `Quick test_single_pole_value_is_gain;
    Alcotest.test_case "magnitude db" `Quick test_magnitude_db;
    Alcotest.test_case "dc nominal sources" `Quick test_dc_with_nominal_sources;
    Alcotest.test_case "symbolic ground output" `Quick test_symbolic_output_ground_rejected;
    Alcotest.test_case "solver empty" `Quick test_solver_empty_problem;
    Alcotest.test_case "mapping empty" `Quick test_mapping_empty;
    Alcotest.test_case "spice directives/case" `Quick test_spice_directives_and_case;
    Alcotest.test_case "sequence trivial" `Quick test_sequence_trivial;
    Alcotest.test_case "json member" `Quick test_json_member_non_object;
  ]
