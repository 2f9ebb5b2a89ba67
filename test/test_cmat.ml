open Linalg

let c re im = Complex.{ re; im }
let cr re = c re 0.0

let complex_close ?(tol = 1e-9) a b = Complex.norm (Complex.sub a b) <= tol

let check_complex msg expected actual =
  if not (complex_close expected actual) then
    Alcotest.fail
      (Printf.sprintf "%s: expected %g%+gi, got %g%+gi" msg expected.Complex.re
         expected.Complex.im actual.Complex.re actual.Complex.im)

(* Test-side helpers on the kernel's workspace API. *)
let determinant m =
  match Cmat.lu_factor m with
  | exception Cmat.Singular -> Complex.zero
  | lu -> Cmat.determinant lu

(* [a·x] and [a·b], boxed *)
let mul_vec a x =
  Array.init (Cmat.rows a) (fun i ->
      let acc = ref Complex.zero in
      Array.iteri (fun k v -> acc := Complex.add !acc (Complex.mul (Cmat.get a i k) v)) x;
      !acc)

let mul a b =
  let r = Cmat.create (Cmat.rows a) (Cmat.cols b) in
  for j = 0 to Cmat.cols b - 1 do
    let y = mul_vec a (Array.init (Cmat.rows b) (fun i -> Cmat.get b i j)) in
    Array.iteri (fun i v -> Cmat.set r i j v) y
  done;
  r

(* The ∞-norm, boxed. *)
let norm_inf a =
  let best = ref 0.0 in
  for i = 0 to Cmat.rows a - 1 do
    let row = ref 0.0 in
    for j = 0 to Cmat.cols a - 1 do
      row := !row +. Complex.norm (Cmat.get a i j)
    done;
    best := Float.max !best !row
  done;
  !best

let identity n =
  Cmat.of_arrays
    (Array.init n (fun i -> Array.init n (fun j -> cr (if i = j then 1.0 else 0.0))))

let test_identity_solve () =
  let m = identity 3 in
  let b = [| cr 1.0; cr 2.0; cr 3.0 |] in
  let x = Cmat.solve m b in
  Array.iteri (fun i v -> check_complex "id" b.(i) v) x

let test_solve_2x2 () =
  (* [1 2; 3 4] x = [5; 11]  =>  x = [1; 2] *)
  let m = Cmat.of_arrays [| [| cr 1.0; cr 2.0 |]; [| cr 3.0; cr 4.0 |] |] in
  let x = Cmat.solve m [| cr 5.0; cr 11.0 |] in
  check_complex "x0" (cr 1.0) x.(0);
  check_complex "x1" (cr 2.0) x.(1)

let test_complex_solve () =
  (* (1+i) x = 2  =>  x = 1 - i *)
  let m = Cmat.of_arrays [| [| c 1.0 1.0 |] |] in
  let x = Cmat.solve m [| cr 2.0 |] in
  check_complex "x" (c 1.0 (-1.0)) x.(0)

let test_singular () =
  let m = Cmat.of_arrays [| [| cr 1.0; cr 2.0 |]; [| cr 2.0; cr 4.0 |] |] in
  (match Cmat.lu_factor m with
  | exception Cmat.Singular -> ()
  | _ -> Alcotest.fail "expected Singular");
  check_complex "det" Complex.zero (determinant m)

let test_near_singular () =
  (* Rows equal to within one ulp: numerically rank-1 at this scale.
     The growth-aware pivot threshold (n·ε·4·‖A‖∞ ≈ 5e-15 here) must
     flag it; the old ‖A‖∞·1e-14·ε threshold (≈ 7e-30) accepted the
     ~2e-15 cancellation residue as a pivot and returned garbage. *)
  let m =
    Cmat.of_arrays [| [| cr 1.0; cr 2.0 |]; [| cr (1.0 +. 1e-15); cr 2.0 |] |]
  in
  match Cmat.lu_factor m with
  | exception Cmat.Singular -> ()
  | _ -> Alcotest.fail "expected Singular for a numerically rank-1 matrix"

let test_determinant () =
  let m = Cmat.of_arrays [| [| cr 1.0; cr 2.0 |]; [| cr 3.0; cr 4.0 |] |] in
  check_complex "det" (cr (-2.0)) (determinant m);
  let p = Cmat.of_arrays [| [| cr 0.0; cr 1.0 |]; [| cr 1.0; cr 0.0 |] |] in
  check_complex "permutation det" (cr (-1.0)) (determinant p)

let test_inverse () =
  (* the solves against the identity's columns are A⁻¹'s columns *)
  let m = Cmat.of_arrays [| [| cr 4.0; cr 7.0 |]; [| cr 2.0; cr 6.0 |] |] in
  let lu = Cmat.lu_factor m in
  let inv = Cmat.create 2 2 in
  for j = 0 to 1 do
    let b = Cmat.Vec.of_complex (Array.init 2 (fun i -> Cmat.get (identity 2) i j)) in
    let x = Cmat.Vec.create 2 in
    Cmat.lu_solve_into lu ~b ~x;
    for i = 0 to 1 do
      Cmat.set inv i j (Cmat.Vec.get x i)
    done
  done;
  let prod = mul m inv in
  for i = 0 to 1 do
    for j = 0 to 1 do
      let expected = if i = j then Complex.one else Complex.zero in
      check_complex "m*m^-1" expected (Cmat.get prod i j)
    done
  done

let test_bounds () =
  let m = Cmat.create 2 2 in
  Alcotest.check_raises "out of bounds"
    (Invalid_argument "Cmat: index (2, 0) out of bounds for 2x2") (fun () ->
      ignore (Cmat.get m 2 0))

let random_matrix rng n =
  Cmat.of_arrays
    (Array.init n (fun _ ->
         Array.init n (fun _ ->
             c (QCheck.Gen.float_range (-10.0) 10.0 rng) (QCheck.Gen.float_range (-10.0) 10.0 rng))))

let qcheck_solve_residual =
  QCheck.Test.make ~name:"LU solve has small residual" ~count:100
    (QCheck.make QCheck.Gen.(pair (int_range 1 12) (int_range 0 1000000)))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let m = random_matrix rng n in
      let b =
        Array.init n (fun _ ->
            c (QCheck.Gen.float_range (-10.0) 10.0 rng) (QCheck.Gen.float_range (-10.0) 10.0 rng))
      in
      match Cmat.solve m b with
      | x ->
          let residual =
            Array.fold_left Float.max 0.0
              (Array.map2 (fun ax bi -> Complex.norm (Complex.sub ax bi)) (mul_vec m x) b)
          in
          residual <= 1e-7 *. Float.max 1.0 (norm_inf m)
      | exception Cmat.Singular -> true (* random singular matrices are legal *))

let qcheck_det_product =
  QCheck.Test.make ~name:"det(AB) = det(A) det(B)" ~count:50
    (QCheck.make QCheck.Gen.(pair (int_range 1 6) (int_range 0 1000000)))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let a = random_matrix rng n and b = random_matrix rng n in
      let da = determinant a and db = determinant b in
      let dab = determinant (mul a b) in
      let expected = Complex.mul da db in
      Complex.norm (Complex.sub dab expected)
      <= 1e-6 *. Float.max 1.0 (Complex.norm expected))

let suite =
  [
    Alcotest.test_case "identity solve" `Quick test_identity_solve;
    Alcotest.test_case "solve 2x2" `Quick test_solve_2x2;
    Alcotest.test_case "complex solve" `Quick test_complex_solve;
    Alcotest.test_case "singular" `Quick test_singular;
    Alcotest.test_case "near-singular" `Quick test_near_singular;
    Alcotest.test_case "determinant" `Quick test_determinant;
    Alcotest.test_case "inverse" `Quick test_inverse;
    Alcotest.test_case "bounds check" `Quick test_bounds;
    QCheck_alcotest.to_alcotest qcheck_solve_residual;
    QCheck_alcotest.to_alcotest qcheck_det_product;
  ]
