open Util

let check_float = Alcotest.(check (float 1e-12))

let test_approx_eq () =
  Alcotest.(check bool) "equal" true (Floatx.approx_eq 1.0 1.0);
  Alcotest.(check bool) "close rel" true (Floatx.approx_eq 1.0 (1.0 +. 1e-12));
  Alcotest.(check bool) "far" false (Floatx.approx_eq 1.0 1.1);
  Alcotest.(check bool) "tiny abs" true (Floatx.approx_eq 0.0 1e-15)

let test_clamp () =
  check_float "below" 0.0 (Floatx.clamp ~lo:0.0 ~hi:1.0 (-3.0));
  check_float "above" 1.0 (Floatx.clamp ~lo:0.0 ~hi:1.0 3.0);
  check_float "inside" 0.5 (Floatx.clamp ~lo:0.0 ~hi:1.0 0.5)

(* logspace spaces its exponents linearly *)
let test_linspace () =
  let a = Array.map log10 (Floatx.logspace 1.0 1e4 5) in
  Alcotest.(check int) "length" 5 (Array.length a);
  check_float "first" 0.0 a.(0);
  check_float "last" 4.0 a.(4);
  check_float "middle" 2.0 a.(2)

let test_logspace () =
  let a = Floatx.logspace 1.0 1000.0 4 in
  Alcotest.(check int) "length" 4 (Array.length a);
  check_float "first" 1.0 a.(0);
  Alcotest.(check (float 1e-9)) "second" 10.0 a.(1);
  Alcotest.(check (float 1e-9)) "last" 1000.0 a.(3)

let test_logspace_invalid () =
  Alcotest.check_raises "non-positive" (Invalid_argument "Floatx.logspace: bounds must be positive")
    (fun () -> ignore (Floatx.logspace 0.0 1.0 3))

let test_fold_range () =
  Alcotest.(check int) "sum" 10 (Floatx.fold_range 5 ~init:0 ~f:( + ));
  Alcotest.(check int) "empty" 7 (Floatx.fold_range 0 ~init:7 ~f:( + ))

let qcheck_linspace_monotone =
  QCheck.Test.make ~name:"linspace is monotone increasing" ~count:100
    QCheck.(pair (float_range (-300.0) 300.0) (int_range 2 50))
    (fun (a, n) ->
      (* one decade of logspace: n linearly spaced exponents in [a, a + 1] *)
      let pts = Floatx.logspace (10.0 ** a) (10.0 ** (a +. 1.0)) n in
      let ok = ref true in
      for i = 0 to n - 2 do
        if pts.(i) >= pts.(i + 1) then ok := false
      done;
      !ok)

let qcheck_logspace_bounds =
  QCheck.Test.make ~name:"logspace endpoints are exact-ish" ~count:100
    QCheck.(pair (float_range 1e-6 1e6) (int_range 2 50))
    (fun (a, n) ->
      let b = a *. 100.0 in
      let pts = Floatx.logspace a b n in
      Floatx.approx_eq ~rel:1e-9 pts.(0) a && Floatx.approx_eq ~rel:1e-9 pts.(n - 1) b)

let suite =
  [
    Alcotest.test_case "approx_eq" `Quick test_approx_eq;
    Alcotest.test_case "clamp" `Quick test_clamp;
    Alcotest.test_case "linspace" `Quick test_linspace;
    Alcotest.test_case "logspace" `Quick test_logspace;
    Alcotest.test_case "logspace invalid" `Quick test_logspace_invalid;
    Alcotest.test_case "fold_range" `Quick test_fold_range;
    QCheck_alcotest.to_alcotest qcheck_linspace_monotone;
    QCheck_alcotest.to_alcotest qcheck_logspace_bounds;
  ]
