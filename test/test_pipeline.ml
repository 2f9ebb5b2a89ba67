(* End-to-end reproduction on the simulated biquad: the paper's shape
   must hold (structure, winners, crossovers), even though absolute
   values come from our simulator rather than the authors' HSPICE
   setup.  See EXPERIMENTS.md for the side-by-side record. *)

module P = Mcdft_core.Pipeline
module O = Mcdft_core.Optimizer
module IntSet = Cover.Clause.IntSet

let pipeline = lazy (P.run (Circuits.Tow_thomas.make ()))
let report = lazy (P.optimize (Lazy.force pipeline))

let test_matrix_shape () =
  let t = Lazy.force pipeline in
  let m = t.P.matrix in
  Alcotest.(check int) "7 test configurations" 7 (Testability.Matrix.n_views m);
  Alcotest.(check int) "8 faults" 8 (Testability.Matrix.n_faults m)

let test_dft_restores_full_coverage () =
  let r = Lazy.force report in
  Alcotest.(check (float 1e-9)) "max FC = 100%" 1.0 r.O.max_coverage;
  Alcotest.(check bool) "functional FC is poor" true (r.O.functional_coverage <= 0.5)

let test_omega_improvement () =
  let r = Lazy.force report in
  Alcotest.(check bool) "DFT widens detectability regions" true
    (r.O.brute_force_avg_omega > 3.0 *. r.O.functional_avg_omega)

let test_essential_is_c2 () =
  (* OP2's follower configuration breaks both integrator loops at once,
     uniquely exposing several faults — same structure as the paper *)
  let r = Lazy.force report in
  Alcotest.(check (list int)) "essential = {C2}" [ 2 ] r.O.essential

let test_two_config_optima () =
  let r = Lazy.force report in
  Alcotest.(check int) "optimal test set has 2 configurations" 2
    (List.length r.O.choice_a.O.configs);
  Alcotest.(check bool) "both paper ties present" true
    (List.exists (fun s -> IntSet.elements s = [ 1; 2 ]) r.O.min_config_sets
    && List.exists (fun s -> IntSet.elements s = [ 2; 5 ]) r.O.min_config_sets)

let test_partial_dft_two_opamps () =
  let r = Lazy.force report in
  Alcotest.(check (list int)) "OP1 and OP2 configurable" [ 0; 1 ] r.O.choice_b.O.opamps;
  Alcotest.(check (list int)) "4 reachable configurations" [ 0; 1; 2; 3 ]
    r.O.choice_b.O.reachable_configs

let test_choices_cover () =
  let t = Lazy.force pipeline in
  let r = Lazy.force report in
  let p = Cover.Clause.of_matrix t.P.matrix.Testability.Matrix.detect in
  Alcotest.(check bool) "choice A covers" true
    (Cover.Clause.is_cover p (IntSet.of_list r.O.choice_a.O.configs));
  Alcotest.(check bool) "choice B covers" true
    (Cover.Clause.is_cover p (IntSet.of_list r.O.choice_b.O.reachable_configs))

let test_partial_vs_brute_tradeoff () =
  (* the partial DFT pays in average omega-detectability relative to the
     brute-force application, but stays above the functional circuit —
     the paper's Graph 4 shape *)
  let r = Lazy.force report in
  Alcotest.(check bool) "partial below brute force" true
    (r.O.choice_b.O.avg_omega_reachable <= r.O.brute_force_avg_omega +. 1e-9);
  Alcotest.(check bool) "partial far above functional" true
    (r.O.choice_b.O.avg_omega_reachable > r.O.functional_avg_omega)

let test_fixed_criterion_mode () =
  (* the paper's literal Definition 1 at eps = 10%: still 100% max
     coverage; our biquad is fully observable at that tolerance *)
  let t =
    P.run
      ~criterion:(Testability.Detect.Fixed_tolerance 0.10)
      ~points_per_decade:10
      (Circuits.Tow_thomas.make ())
  in
  let r = P.optimize t in
  Alcotest.(check (float 1e-9)) "max FC" 1.0 r.O.max_coverage

let test_single_opamp_circuit () =
  (* smallest possible instance: 1 opamp, 2 configurations, C1 is the
     transparent one so only C0 remains as a test configuration *)
  let t = P.run ~points_per_decade:10 (Circuits.Sallen_key.lowpass ()) in
  let m = t.P.matrix in
  Alcotest.(check int) "single view" 1 (Testability.Matrix.n_views m);
  let r = P.optimize t in
  Alcotest.(check bool) "coverage within [0,1]" true
    (r.O.max_coverage >= 0.0 && r.O.max_coverage <= 1.0)

let suite =
  [
    Alcotest.test_case "matrix shape" `Quick test_matrix_shape;
    Alcotest.test_case "dft restores coverage" `Quick test_dft_restores_full_coverage;
    Alcotest.test_case "omega improvement" `Quick test_omega_improvement;
    Alcotest.test_case "essential is C2" `Quick test_essential_is_c2;
    Alcotest.test_case "two-config optima" `Quick test_two_config_optima;
    Alcotest.test_case "partial DFT: 2 opamps" `Quick test_partial_dft_two_opamps;
    Alcotest.test_case "choices cover" `Quick test_choices_cover;
    Alcotest.test_case "partial vs brute tradeoff" `Quick test_partial_vs_brute_tradeoff;
    Alcotest.test_case "fixed criterion mode" `Quick test_fixed_criterion_mode;
    Alcotest.test_case "single-opamp circuit" `Quick test_single_opamp_circuit;
  ]
