open Linalg

let p = Poly.of_coeffs
let check_poly msg a b = Alcotest.(check bool) msg true (Poly.equal a b)

let test_construct () =
  Alcotest.(check int) "degree zero poly" (-1) (Poly.degree (p [||]));
  Alcotest.(check int) "degree const" 0 (Poly.degree Poly.one);
  Alcotest.(check int) "degree s" 1 (Poly.degree (p [| 0.0; 1.0 |]));
  Alcotest.(check int) "trailing zeros trimmed" 1 (Poly.degree (p [| 1.0; 2.0; 0.0; 0.0 |]))

let test_arith () =
  let a = p [| 1.0; 2.0 |] and b = p [| 3.0; 0.0; 1.0 |] in
  check_poly "mul" (p [| 3.0; 6.0; 1.0; 2.0 |]) (Poly.mul a b);
  check_poly "mul zero" (p [||]) (Poly.mul a (p [||]));
  check_poly "scale" (p [| 2.0; 4.0 |]) (Poly.scale 2.0 a)

let test_eval () =
  let q = p [| 1.0; -3.0; 2.0 |] in
  (* 1 - 3x + 2x^2; q(2) = 3 *)
  Alcotest.(check (float 1e-12)) "real eval" 3.0 (Poly.eval q Complex.{ re = 2.0; im = 0.0 }).Complex.re;
  let v = Poly.eval q Complex.{ re = 0.0; im = 1.0 } in
  (* q(i) = 1 - 3i + 2 i^2 = -1 - 3i *)
  Alcotest.(check (float 1e-12)) "re" (-1.0) v.Complex.re;
  Alcotest.(check (float 1e-12)) "im" (-3.0) v.Complex.im

let test_derivative () =
  check_poly "d/ds (1 + 2s + 3s^2)" (p [| 2.0; 6.0 |]) (Poly.derivative (p [| 1.0; 2.0; 3.0 |]));
  check_poly "d/ds const" (p [||]) (Poly.derivative Poly.one)

let test_roots_quadratic () =
  (* (s-1)(s-2) = 2 - 3s + s^2 *)
  let roots = Poly.roots (p [| 2.0; -3.0; 1.0 |]) in
  let sorted =
    List.sort compare (Array.to_list (Array.map (fun c -> c.Complex.re) roots))
  in
  match sorted with
  | [ a; b ] ->
      Alcotest.(check (float 1e-6)) "root 1" 1.0 a;
      Alcotest.(check (float 1e-6)) "root 2" 2.0 b
  | _ -> Alcotest.fail "expected two roots"

let test_roots_complex_pair () =
  (* s^2 + 1 = 0 -> +/- i *)
  let roots = Poly.roots (p [| 1.0; 0.0; 1.0 |]) in
  Alcotest.(check int) "count" 2 (Array.length roots);
  Array.iter
    (fun r ->
      Alcotest.(check (float 1e-6)) "re" 0.0 r.Complex.re;
      Alcotest.(check (float 1e-6)) "abs im" 1.0 (Float.abs r.Complex.im))
    roots

let test_roots_scaled () =
  (* roots far from unit circle: (s + 1e5)(s + 10) *)
  let q = Poly.mul (p [| 1e5; 1.0 |]) (p [| 10.0; 1.0 |]) in
  let roots = Poly.roots q in
  let res = List.sort compare (Array.to_list (Array.map (fun c -> c.Complex.re) roots)) in
  match res with
  | [ a; b ] ->
      Alcotest.(check (float 1.0)) "fast root" (-1e5) a;
      Alcotest.(check (float 1e-3)) "slow root" (-10.0) b
  | _ -> Alcotest.fail "expected two roots"

let gen_poly =
  QCheck.Gen.(
    map
      (fun coeffs -> Poly.of_coeffs (Array.of_list coeffs))
      (list_size (int_range 0 6) (float_range (-10.0) 10.0)))

let qcheck_eval_hom =
  QCheck.Test.make ~name:"eval is a ring hom: (ab)(x) = a(x) b(x)" ~count:200
    (QCheck.make QCheck.Gen.(triple gen_poly gen_poly (float_range (-3.0) 3.0)))
    (fun (a, b, x) ->
      let eval_real p x = (Poly.eval p Complex.{ re = x; im = 0.0 }).Complex.re in
      let lhs = eval_real (Poly.mul a b) x in
      let rhs = eval_real a x *. eval_real b x in
      Float.abs (lhs -. rhs) <= 1e-6 *. Float.max 1.0 (Float.abs rhs))

let qcheck_roots_are_roots =
  QCheck.Test.make ~name:"roots evaluate to ~0" ~count:100
    (QCheck.make
       QCheck.Gen.(list_size (int_range 2 5) (float_range (-5.0) 5.0)))
    (fun coeffs ->
      let q = Poly.of_coeffs (Array.of_list (coeffs @ [ 1.0 ])) in
      let scale =
        Array.fold_left (fun acc c -> Float.max acc (Float.abs c)) 1.0 (Poly.coeffs q)
      in
      Array.for_all
        (fun r ->
          let v = Poly.eval q r in
          let root_mag = Float.max 1.0 (Complex.norm r) in
          Complex.norm v <= 1e-4 *. scale *. (root_mag ** float_of_int (Poly.degree q)))
        (Poly.roots q))

(* An overflowed symbolic determinant (a large RC ladder) hands roots
   infinite coefficients; normalizing by an infinite leading term used
   to yield the zero polynomial and an out-of-range Array.sub. *)
let test_roots_non_finite () =
  let refused what coeffs =
    match Poly.roots (p coeffs) with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" what
    | exception Invalid_argument _ -> ()
  in
  refused "infinite leading coefficient" [| 1.0; 2.0; infinity |];
  refused "infinite and nan coefficients" [| neg_infinity; nan; infinity |];
  refused "subnormal leading coefficient" [| 1.0; 5e-324 |];
  Alcotest.(check int) "finite input still solves" 2
    (Array.length (Poly.roots (p [| 2.0; -3.0; 1.0 |])))

let suite =
  [
    Alcotest.test_case "construct" `Quick test_construct;
    Alcotest.test_case "arith" `Quick test_arith;
    Alcotest.test_case "eval" `Quick test_eval;
    Alcotest.test_case "derivative" `Quick test_derivative;
    Alcotest.test_case "roots quadratic" `Quick test_roots_quadratic;
    Alcotest.test_case "roots complex pair" `Quick test_roots_complex_pair;
    Alcotest.test_case "roots scaled" `Quick test_roots_scaled;
    Alcotest.test_case "roots refuse non-finite input" `Quick test_roots_non_finite;
    QCheck_alcotest.to_alcotest qcheck_eval_hom;
    QCheck_alcotest.to_alcotest qcheck_roots_are_roots;
  ]
