open Util

let check_float = Alcotest.(check (float 1e-12))

let test_make_invalid () =
  Alcotest.check_raises "lo > hi" (Invalid_argument "Interval.make: lo > hi") (fun () ->
      ignore (Interval.make 2.0 1.0))

let test_basic () =
  let i = Interval.make 1.0 3.0 in
  check_float "lo" 1.0 i.Interval.lo;
  check_float "hi" 3.0 i.Interval.hi;
  check_float "measure" 2.0 (Interval.Set.measure (Interval.Set.of_intervals [ i ]))

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

let suite =
  [
    Alcotest.test_case "make invalid" `Quick test_make_invalid;
    Alcotest.test_case "basic" `Quick test_basic;
    Alcotest.test_case "set merge" `Quick test_set_merge;
    Alcotest.test_case "set touching merge" `Quick test_set_touching_merge;
    Alcotest.test_case "set empty" `Quick test_set_empty;
    QCheck_alcotest.to_alcotest qcheck_measure_subadditive;
  ]
