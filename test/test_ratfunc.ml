open Linalg

let p = Poly.of_coeffs

(* H(jω), from the two polynomials *)
let eval_jw (h : Ratfunc.t) w =
  let s = Complex.{ re = 0.0; im = w } in
  Complex.div (Poly.eval h.num s) (Poly.eval h.den s)

let test_make_normalizes () =
  (* (2 + 2s) / (2 + 2s) should evaluate to 1 everywhere *)
  let h = Ratfunc.make (p [| 2.0; 2.0 |]) (p [| 2.0; 2.0 |]) in
  Alcotest.(check (float 1e-12)) "H(j1)" 1.0 (Complex.norm (eval_jw h 1.0))

let test_zero_den_rejected () =
  Alcotest.check_raises "zero denominator"
    (Invalid_argument "Ratfunc.make: zero denominator") (fun () ->
      ignore (Ratfunc.make Poly.one (p [||])))

let test_lowpass () =
  (* H = 1 / (1 + s); |H(j0)| = 1, |H(j1)| = 1/sqrt 2, phase -45 deg *)
  let h = Ratfunc.make Poly.one (p [| 1.0; 1.0 |]) in
  Alcotest.(check (float 1e-12)) "dc" 1.0 (Ratfunc.dc_gain h);
  Alcotest.(check (float 1e-9)) "corner" (1.0 /. sqrt 2.0) (Complex.norm (eval_jw h 1.0));
  let v = eval_jw h 1.0 in
  Alcotest.(check (float 1e-9)) "phase" (-.Float.pi /. 4.0) (atan2 v.Complex.im v.Complex.re)

let test_poles_zeros () =
  (* H = s / (s^2 + 3s + 2) : zero at 0, poles at -1 and -2 *)
  let h = Ratfunc.make (p [| 0.0; 1.0 |]) (p [| 2.0; 3.0; 1.0 |]) in
  let zs = Ratfunc.zeros h in
  Alcotest.(check int) "one zero" 1 (Array.length zs);
  Alcotest.(check (float 1e-8)) "zero at origin" 0.0 (Complex.norm zs.(0));
  let ps =
    List.sort compare (Array.to_list (Array.map (fun c -> c.Complex.re) (Ratfunc.poles h)))
  in
  (match ps with
  | [ a; b ] ->
      Alcotest.(check (float 1e-6)) "pole -2" (-2.0) a;
      Alcotest.(check (float 1e-6)) "pole -1" (-1.0) b
  | _ -> Alcotest.fail "expected two poles")

let test_equal_at () =
  let a = Ratfunc.make Poly.one (p [| 1.0; 1.0 |]) in
  (* same function with a non-cancelled common factor (1 + 2s) *)
  let factor = p [| 1.0; 2.0 |] in
  let b = Ratfunc.make factor (Poly.mul (p [| 1.0; 1.0 |]) factor) in
  Alcotest.(check bool) "equal up to common factor" true (Ratfunc.equal_at a b);
  let c = Ratfunc.make (p [| 2.0 |]) (p [| 1.0; 1.0 |]) in
  Alcotest.(check bool) "different" false (Ratfunc.equal_at a c)

let suite =
  [
    Alcotest.test_case "make normalizes" `Quick test_make_normalizes;
    Alcotest.test_case "zero denominator" `Quick test_zero_den_rejected;
    Alcotest.test_case "first-order lowpass" `Quick test_lowpass;
    Alcotest.test_case "poles and zeros" `Quick test_poles_zeros;
    Alcotest.test_case "equal_at" `Quick test_equal_at;
  ]

let test_simplify_cancels_common_factor () =
  let base = Ratfunc.make Poly.one (p [| 1.0; 1.0 |]) in
  let factor = p [| 2.0; 3.0 |] in
  let padded =
    Ratfunc.make (Poly.mul Poly.one factor) (Poly.mul (p [| 1.0; 1.0 |]) factor)
  in
  let simplified = Ratfunc.simplify padded in
  Alcotest.(check int) "denominator degree drops" 1
    (Poly.degree simplified.Ratfunc.den);
  Alcotest.(check bool) "same function" true (Ratfunc.equal_at base simplified)

let test_simplify_keeps_distinct_roots () =
  (* zero at -1, poles at -2 and -3: nothing shared *)
  let h = Ratfunc.make (p [| 1.0; 1.0 |]) (p [| 6.0; 5.0; 1.0 |]) in
  let s = Ratfunc.simplify h in
  Alcotest.(check int) "nothing cancelled" 2 (Poly.degree s.Ratfunc.den);
  Alcotest.(check bool) "same function" true (Ratfunc.equal_at h s)

let test_simplify_conjugate_pairs () =
  (* common factor s^2 + 1 cancels and the surviving complex poles
     rebuild into a real-coefficient quadratic *)
  let pair = p [| 1.0; 0.0; 1.0 |] in
  let den = Poly.mul pair (p [| 4.0; 2.0; 1.0 |]) in
  let h = Ratfunc.make pair den in
  let s = Ratfunc.simplify h in
  Alcotest.(check int) "num constant" 0 (Poly.degree s.Ratfunc.num);
  Alcotest.(check int) "den quadratic" 2 (Poly.degree s.Ratfunc.den);
  Alcotest.(check bool) "same function" true (Ratfunc.equal_at h s)

let test_group_delay_first_order () =
  (* H = 1/(1 + s tau): tau_g = tau / (1 + (w tau)^2) *)
  let tau = 1e-3 in
  let h = Ratfunc.make Poly.one (p [| 1.0; tau |]) in
  List.iter
    (fun w ->
      let expected = tau /. (1.0 +. ((w *. tau) ** 2.0)) in
      Alcotest.(check (float 1e-12))
        (Printf.sprintf "tau_g at %g" w)
        expected (Ratfunc.group_delay h w))
    [ 0.0; 100.0; 1000.0; 10_000.0 ]

let test_group_delay_matches_numeric_derivative () =
  (* biquad: compare against a central difference of the phase *)
  let h = Ratfunc.make (p [| 1.0 |]) (p [| 1.0; 0.2; 1.0 |]) in
  let phase w = Complex.arg (eval_jw h w) in
  List.iter
    (fun w ->
      let dw = 1e-6 *. Float.max 1.0 w in
      let numeric = -.(phase (w +. dw) -. phase (w -. dw)) /. (2.0 *. dw) in
      Alcotest.(check (float 1e-4))
        (Printf.sprintf "at w=%g" w)
        numeric (Ratfunc.group_delay h w))
    [ 0.3; 0.9; 1.1; 3.0 ]

let suite =
  suite
  @ [
      Alcotest.test_case "simplify cancels" `Quick test_simplify_cancels_common_factor;
      Alcotest.test_case "simplify keeps distinct" `Quick test_simplify_keeps_distinct_roots;
      Alcotest.test_case "simplify conjugates" `Quick test_simplify_conjugate_pairs;
      Alcotest.test_case "group delay first order" `Quick test_group_delay_first_order;
      Alcotest.test_case "group delay numeric" `Quick test_group_delay_matches_numeric_derivative;
    ]
