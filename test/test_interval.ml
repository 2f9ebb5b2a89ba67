open Util

let check_float = Alcotest.(check (float 1e-12))

let test_make_invalid () =
  Alcotest.check_raises "lo > hi" (Invalid_argument "Interval.make: lo > hi") (fun () ->
      ignore (Interval.make 2.0 1.0))

let test_basic () =
  let i = Interval.make 1.0 3.0 in
  check_float "length" 2.0 (Interval.length i);
  Alcotest.(check bool) "contains" true (Interval.contains i 2.0);
  Alcotest.(check bool) "boundary" true (Interval.contains i 3.0);
  Alcotest.(check bool) "outside" false (Interval.contains i 3.5)

let test_set_merge () =
  let s =
    Interval.Set.of_intervals
      [ Interval.make 0.0 1.0; Interval.make 0.5 2.0; Interval.make 3.0 4.0 ]
  in
  let is = Interval.Set.to_intervals s in
  Alcotest.(check int) "two components" 2 (List.length is);
  check_float "measure" 3.0 (Interval.Set.measure s)

let test_set_touching_merge () =
  let s = Interval.Set.of_intervals [ Interval.make 0.0 1.0; Interval.make 1.0 2.0 ] in
  Alcotest.(check int) "merged" 1 (List.length (Interval.Set.to_intervals s));
  check_float "measure" 2.0 (Interval.Set.measure s)

let test_set_empty () =
  let empty = Interval.Set.of_intervals [] in
  Alcotest.(check bool) "empty" true (Interval.Set.is_empty empty);
  check_float "zero measure" 0.0 (Interval.Set.measure empty)

let qcheck_measure_subadditive =
  let interval_gen =
    QCheck.Gen.(
      map
        (fun (a, len) -> Interval.make a (a +. Float.abs len))
        (pair (float_bound_inclusive 100.0) (float_bound_inclusive 10.0)))
  in
  let set_gen = QCheck.Gen.(map Interval.Set.of_intervals (list_size (int_range 0 8) interval_gen)) in
  QCheck.Test.make ~name:"union measure <= sum of measures" ~count:200
    (QCheck.make QCheck.Gen.(pair set_gen set_gen))
    (fun (a, b) ->
      let u = Interval.Set.(of_intervals (to_intervals a @ to_intervals b)) in
      Interval.Set.measure u <= Interval.Set.measure a +. Interval.Set.measure b +. 1e-9)

(* ---- outward-rounded extended arithmetic ---- *)

let is_whole (i : Interval.t) = i.Interval.lo = neg_infinity && i.Interval.hi = infinity

let test_zero_straddling_div () =
  let a = Interval.make 1.0 2.0 in
  Alcotest.(check bool) "straddling denominator -> whole" true
    (is_whole (Interval.div a (Interval.make (-1.0) 1.0)));
  Alcotest.(check bool) "denominator touching zero at lo -> whole" true
    (is_whole (Interval.div a (Interval.make 0.0 1.0)));
  Alcotest.(check bool) "denominator touching zero at hi -> whole" true
    (is_whole (Interval.div a (Interval.make (-1.0) 0.0)));
  Alcotest.(check bool) "reciprocal through zero -> whole" true
    (is_whole (Interval.div (Interval.point 1.0) (Interval.make (-2.0) 3.0)));
  (* bounded away from zero: finite, outward-rounded, correct orientation *)
  let q = Interval.div (Interval.make 1.0 2.0) (Interval.make 4.0 8.0) in
  Alcotest.(check bool) "bounded quotient encloses exact range" true
    (q.Interval.lo <= 0.125 && q.Interval.hi >= 0.5
    && Float.is_finite q.Interval.lo && Float.is_finite q.Interval.hi)

let test_outward_rounding () =
  (* 0.1 + 0.2 is inexact: the enclosure must strictly contain the
     float sum in both directions, by at least one ulp each side *)
  let s = Interval.add (Interval.point 0.1) (Interval.point 0.2) in
  let fl = 0.1 +. 0.2 in
  Alcotest.(check bool) "sum enclosed strictly" true
    (s.Interval.lo < fl && fl < s.Interval.hi);
  Alcotest.(check bool) "one ulp each side" true
    (s.Interval.lo = Float.pred fl && s.Interval.hi = Float.succ fl);
  (* outward rounding is an identity at the infinities: widening
     max_float must saturate rather than wrap *)
  let big = Interval.mul (Interval.point Float.max_float) (Interval.point 2.0) in
  Alcotest.(check bool) "overflow saturates to +inf" true (big.Interval.hi = infinity);
  let m = Interval.mul (Interval.make 2.0 3.0) (Interval.make (-5.0) 7.0) in
  Alcotest.(check bool) "mul endpoint enclosure" true
    (m.Interval.lo <= -15.0 && m.Interval.hi >= 21.0)

let test_nan_inf_propagation () =
  Alcotest.(check bool) "point nan -> whole" true (is_whole (Interval.point Float.nan));
  (* unbounded intervals are records, not [make] (which guards finite
     user input); the extended ops must still be total on them *)
  let upper = { Interval.lo = 0.0; hi = infinity } in
  Alcotest.(check bool) "inf - inf -> whole" true
    (is_whole (Interval.sub upper upper));
  Alcotest.(check bool) "0 * inf -> whole" true
    (is_whole
       (Interval.mul (Interval.point 0.0) { Interval.lo = 1.0; hi = infinity }));
  let w = Interval.add (Interval.point Float.nan) (Interval.point 1.0) in
  Alcotest.(check bool) "whole absorbs" true (is_whole w);
  (* |0 + 0j|: the outward-rounded sum of squares crosses below 0 by
     one ulp, and the square root clamps its lower bound at 0 *)
  let zero = Interval.point 0.0 in
  Alcotest.(check bool) "sqrt of negative-crossing clamps lo" true
    ((Interval.Complex_box.abs (Interval.Complex_box.make zero zero)).Interval.lo = 0.0);
  Alcotest.(check bool) "abs of straddling" true
    ((Interval.abs (Interval.make (-3.0) 2.0)).Interval.lo = 0.0)

(* the load-bearing property for certification: the interval magnitude
   of H(jω) encloses every point evaluation across random rational
   forms and random frequency boxes *)
let qcheck_ratfunc_enclosure =
  let coeffs_gen =
    QCheck.Gen.(
      list_size (int_range 1 5)
        (map (fun (m, e) -> m *. (10.0 ** e))
           (pair (float_range (-10.0) 10.0) (float_range (-3.0) 3.0))))
  in
  let case_gen =
    QCheck.Gen.(
      pair (pair coeffs_gen coeffs_gen)
        (pair (float_range 0.0 6.0) (float_range 0.0 0.5)))
  in
  QCheck.Test.make ~name:"magnitude_jw_box encloses 1k point evaluations" ~count:1000
    (QCheck.make case_gen)
    (fun ((num, den), (log_f, width)) ->
      let num = Array.of_list num and den = Array.of_list den in
      if Array.for_all (fun c -> c = 0.0) den then true
      else begin
        let h = Linalg.Ratfunc.make (Linalg.Poly.of_coeffs num) (Linalg.Poly.of_coeffs den) in
        let w_lo = 2.0 *. Float.pi *. (10.0 ** log_f) in
        let w_hi = w_lo *. (10.0 ** width) in
        let box =
          Linalg.Ratfunc.magnitude_jw_box h (Interval.make w_lo w_hi)
        in
        (* 7 probes across the box, endpoints included *)
        let ok = ref true in
        for k = 0 to 6 do
          let w = w_lo +. ((w_hi -. w_lo) *. float_of_int k /. 6.0) in
          let v = Complex.norm (Linalg.Ratfunc.eval_jw h w) in
          (* the box bounds the exact real value; the float point
             evaluation can sit a few ulps outside it, so compare with
             a tiny relative slack *)
          let slack = 1e-9 *. Float.max 1.0 (Float.abs v) in
          if Float.is_finite v && (v < box.Interval.lo -. slack || v > box.Interval.hi +. slack)
          then ok := false
        done;
        !ok
      end)

let suite =
  [
    Alcotest.test_case "make invalid" `Quick test_make_invalid;
    Alcotest.test_case "basic" `Quick test_basic;
    Alcotest.test_case "set merge" `Quick test_set_merge;
    Alcotest.test_case "set touching merge" `Quick test_set_touching_merge;
    Alcotest.test_case "set empty" `Quick test_set_empty;
    Alcotest.test_case "zero-straddling division" `Quick test_zero_straddling_div;
    Alcotest.test_case "outward rounding" `Quick test_outward_rounding;
    Alcotest.test_case "nan/inf propagation" `Quick test_nan_inf_propagation;
    QCheck_alcotest.to_alcotest qcheck_measure_subadditive;
    QCheck_alcotest.to_alcotest qcheck_ratfunc_enclosure;
  ]
