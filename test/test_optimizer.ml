(* Running the optimizer on the paper's published matrices must
   reproduce every number of Section 4 exactly. *)

module O = Mcdft_core.Optimizer
module PD = Mcdft_core.Paper_data
module IntSet = Cover.Clause.IntSet

let paper_report =
  lazy
    (O.optimize
       (O.input_of_matrices ~n_opamps:PD.n_opamps PD.detectability_matrix PD.omega_table))

let test_coverages () =
  let r = Lazy.force paper_report in
  Alcotest.(check (float 1e-9)) "max FC = 100%" 1.0 r.O.max_coverage;
  Alcotest.(check (float 1e-9)) "functional FC = 25%" PD.functional_coverage
    r.O.functional_coverage;
  Alcotest.(check (list int)) "no uncoverable fault" [] r.O.uncoverable

let test_omega_summaries () =
  let r = Lazy.force paper_report in
  Alcotest.(check (float 1e-9)) "graph 1: 12.5%" PD.functional_avg_omega
    r.O.functional_avg_omega;
  Alcotest.(check (float 1e-9)) "graph 2: 68.25% (paper prints 68.3)" PD.dft_avg_omega
    r.O.brute_force_avg_omega

let test_essential_configuration () =
  let r = Lazy.force paper_report in
  Alcotest.(check (list int)) "essential = {C2}" [ 2 ] r.O.essential

let test_xi_expression () =
  let r = Lazy.force paper_report in
  Alcotest.(check string) "xi as printed in the paper"
    "(C0+C2+C4+C6).(C2+C4+C6).(C1+C4+C5).(C0+C2+C4+C6).(C1+C2+C3+C4).(C1+C2+C3).(C2).(C1+C5)"
    (Format.asprintf "%a" Cover.Clause.pp r.O.xi);
  Alcotest.(check string) "reduced xi" "(C1+C4+C5).(C1+C5)"
    (Format.asprintf "%a" Cover.Clause.pp r.O.xi_reduced)

let test_raw_sop_terms () =
  let r = Lazy.force paper_report in
  match r.O.xi_terms_raw with
  | None -> Alcotest.fail "petrick expansion expected"
  | Some terms ->
      (* the paper: xi = C1C2 + C1C2C5 + C1C2C4 + C2C4C5 + C2C5 *)
      Alcotest.(check (list (list int)))
        "five terms, paper order"
        [ [ 1; 2 ]; [ 1; 2; 5 ]; [ 1; 2; 4 ]; [ 2; 4; 5 ]; [ 2; 5 ] ]
        (List.map IntSet.elements terms)

let test_minimal_config_sets () =
  let r = Lazy.force paper_report in
  Alcotest.(check (list (list int))) "{C1,C2} and {C2,C5}"
    [ [ 1; 2 ]; [ 2; 5 ] ]
    (List.map IntSet.elements r.O.min_config_sets)

let test_third_order_choice () =
  let r = Lazy.force paper_report in
  Alcotest.(check (list int)) "S_opt = {C2, C5}" PD.optimal_config_set
    r.O.choice_a.O.configs;
  Alcotest.(check (float 1e-9)) "32.5%" PD.optimal_config_avg_omega r.O.choice_a.O.avg_omega;
  (* and the rejected tie scores 30% *)
  Alcotest.(check (float 1e-9)) "rejected tie at 30%" PD.rejected_config_avg_omega
    (O.avg_omega_of r.O.input [ 1; 2 ])

let test_xi_star () =
  let r = Lazy.force paper_report in
  match r.O.xi_terms_raw with
  | None -> Alcotest.fail "raw SOP expected"
  | Some terms ->
      Alcotest.(check (list (list int)))
        "OP1OP2 + 4x OP1OP2OP3"
        [ [ 0; 1 ]; [ 0; 1; 2 ]; [ 0; 1; 2 ]; [ 0; 1; 2 ]; [ 0; 1; 2 ] ]
        (List.map IntSet.elements (Cover.Mapping.xi_star terms))

let test_partial_dft_choice () =
  let r = Lazy.force paper_report in
  Alcotest.(check (list (list int))) "unique minimal opamp set" [ PD.optimal_opamp_set ]
    (List.map IntSet.elements r.O.min_opamp_sets);
  Alcotest.(check (list int)) "OP1, OP2" PD.optimal_opamp_set r.O.choice_b.O.opamps;
  Alcotest.(check (list int)) "reachable = C0..C3 (paper Table 4)" [ 0; 1; 2; 3 ]
    r.O.choice_b.O.reachable_configs;
  Alcotest.(check (float 1e-9)) "52.5%" PD.partial_dft_avg_omega
    r.O.choice_b.O.avg_omega_reachable

let test_choice_sets_satisfy_fundamental_requirement () =
  let r = Lazy.force paper_report in
  let p = Cover.Clause.of_matrix PD.detectability_matrix in
  Alcotest.(check bool) "choice A covers" true
    (Cover.Clause.is_cover p (IntSet.of_list r.O.choice_a.O.configs));
  Alcotest.(check bool) "choice B reachable set covers" true
    (Cover.Clause.is_cover p (IntSet.of_list r.O.choice_b.O.reachable_configs))

let test_input_validation () =
  Alcotest.check_raises "row count"
    (Invalid_argument "Optimizer.input_of_matrices: expected 7 rows, got 2") (fun () ->
      ignore
        (O.input_of_matrices ~n_opamps:3
           [| [| true |]; [| false |] |]
           [| [| 1.0 |]; [| 0.0 |] |]));
  Alcotest.check_raises "omega consistency"
    (Invalid_argument
       "Optimizer.input_of_matrices: fault 0 detectable in C0 but omega = 0") (fun () ->
      ignore
        (O.input_of_matrices ~n_opamps:1 [| [| true |] |] [| [| 0.0 |] |]))

let test_bnb_path_matches_petrick () =
  (* with petrick disabled (petrick_limit = 0) the exact solver must
     find a cover of the same cardinality *)
  let input =
    O.input_of_matrices ~n_opamps:PD.n_opamps PD.detectability_matrix PD.omega_table
  in
  let via_petrick = O.optimize input in
  let via_bnb = O.optimize ~petrick_limit:0 input in
  Alcotest.(check bool) "raw terms skipped" true (via_bnb.O.xi_terms_raw = None);
  Alcotest.(check int) "same cardinality"
    (List.length via_petrick.O.choice_a.O.configs)
    (List.length via_bnb.O.choice_a.O.configs);
  Alcotest.(check (list int)) "same opamp subset" via_petrick.O.choice_b.O.opamps
    via_bnb.O.choice_b.O.opamps

let qcheck_choice_always_covers =
  QCheck.Test.make ~name:"optimizer choices always satisfy the fundamental requirement"
    ~count:60
    (QCheck.make QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let n_opamps = 2 + QCheck.Gen.int_bound 1 rng in
      let rows = (1 lsl n_opamps) - 1 in
      let m = 1 + QCheck.Gen.int_bound 5 rng in
      let detect = Array.init rows (fun _ -> Array.init m (fun _ -> QCheck.Gen.bool rng)) in
      let omega =
        Array.map
          (Array.map (fun d -> if d then 1.0 +. QCheck.Gen.float_bound_inclusive 99.0 rng else 0.0))
          detect
      in
      let input = O.input_of_matrices ~n_opamps detect omega in
      let r = O.optimize input in
      let p = Cover.Clause.of_matrix detect in
      Cover.Clause.is_cover p (IntSet.of_list r.O.choice_a.O.configs)
      && Cover.Clause.is_cover p (IntSet.of_list r.O.choice_b.O.reachable_configs))

let test_n_detect_on_paper_matrix () =
  let input =
    O.input_of_matrices ~n_opamps:PD.n_opamps PD.detectability_matrix PD.omega_table
  in
  let r = O.optimize ~n_detect:2 input in
  Alcotest.(check int) "report records the target" 2 r.O.n_detect;
  (* every fault must be hit by min(2, available) chosen configurations *)
  let available j =
    Array.fold_left
      (fun acc row -> if row.(j) then acc + 1 else acc)
      0 PD.detectability_matrix
  in
  let hits configs j =
    List.fold_left
      (fun acc i -> if PD.detectability_matrix.(i).(j) then acc + 1 else acc)
      0 configs
  in
  let m = Array.length PD.detectability_matrix.(0) in
  for j = 0 to m - 1 do
    let needed = Int.min 2 (available j) in
    Alcotest.(check bool)
      (Printf.sprintf "fault %d hit >= %d times by choice A" j needed)
      true
      (hits r.O.choice_a.O.configs j >= needed)
  done;
  Alcotest.(check bool) "worst over detectable faults >= 1" true
    (r.O.detection_a.O.worst >= 1);
  Alcotest.(check bool) "average >= worst" true
    (r.O.detection_a.O.average >= float_of_int r.O.detection_a.O.worst);
  (* the n=1 report is unchanged by the new machinery *)
  let r1 = O.optimize ~n_detect:1 input in
  let r0 = Lazy.force paper_report in
  Alcotest.(check (list int)) "n=1 choice A unchanged" r0.O.choice_a.O.configs
    r1.O.choice_a.O.configs;
  Alcotest.(check (list int)) "n=1 short faults empty" []
    (List.map fst r1.O.short_faults);
  Alcotest.check_raises "n_detect >= 1 enforced"
    (Invalid_argument "Optimizer.optimize: n_detect must be at least 1") (fun () ->
      ignore (O.optimize ~n_detect:0 input))

let suite =
  [
    Alcotest.test_case "coverages" `Quick test_coverages;
    Alcotest.test_case "omega summaries" `Quick test_omega_summaries;
    Alcotest.test_case "essential configuration" `Quick test_essential_configuration;
    Alcotest.test_case "xi expression" `Quick test_xi_expression;
    Alcotest.test_case "raw SOP terms" `Quick test_raw_sop_terms;
    Alcotest.test_case "minimal config sets" `Quick test_minimal_config_sets;
    Alcotest.test_case "third-order choice" `Quick test_third_order_choice;
    Alcotest.test_case "xi star" `Quick test_xi_star;
    Alcotest.test_case "partial DFT choice" `Quick test_partial_dft_choice;
    Alcotest.test_case "choices cover" `Quick test_choice_sets_satisfy_fundamental_requirement;
    Alcotest.test_case "input validation" `Quick test_input_validation;
    Alcotest.test_case "bnb path" `Quick test_bnb_path_matches_petrick;
    Alcotest.test_case "n-detect on the paper matrix" `Quick
      test_n_detect_on_paper_matrix;
    QCheck_alcotest.to_alcotest qcheck_choice_always_covers;
  ]

let test_optimize_deterministic () =
  let input =
    O.input_of_matrices ~n_opamps:PD.n_opamps PD.detectability_matrix PD.omega_table
  in
  let a = O.optimize input and b = O.optimize input in
  Alcotest.(check (list int)) "choice A stable" a.O.choice_a.O.configs
    b.O.choice_a.O.configs;
  Alcotest.(check (list int)) "choice B stable" a.O.choice_b.O.opamps
    b.O.choice_b.O.opamps

let suite = suite @ [ Alcotest.test_case "deterministic" `Quick test_optimize_deterministic ]

(* ---- Petrick at registry scale ---- *)

let render_terms terms =
  String.concat " + "
    (List.map
       (fun s -> String.concat "." (List.map (Printf.sprintf "C%d") (IntSet.elements s)))
       terms)

(* Catastrophic faults, fixed:0.1, ppd 10, nominal values: the three
   registry circuits whose raw ξ has over 31,000 terms. The digest of
   the rendered raw listing pins the derivation order as well as the
   terms. *)
let registry_petrick_cases =
  [
    ("tt-notch", 31_619, 48, "55bd66a35b5657ae61c150c514f76a39");
    ("universal-notch", 31_846, 36, "e954da6390af68395b5dd37125e8abef");
    ("universal-ap", 31_478, 43, "bf6a22481f265f3071dfcedfed52ae56");
  ]

let test_registry_petrick_fixture () =
  List.iter
    (fun (name, n_raw, n_min, digest) ->
      let b = Option.get (Circuits.Registry.find name) in
      let t =
        Mcdft_core.Pipeline.run ~criterion:(Testability.Detect.Fixed_tolerance 0.1)
          ~points_per_decade:10
          ~faults:(Fault.catastrophic_faults b.Circuits.Benchmark.netlist)
          b
      in
      let r = Mcdft_core.Pipeline.optimize t in
      Alcotest.(check (option int)) (name ^ ": raw count") (Some n_raw) r.O.xi_raw_count;
      Alcotest.(check bool) (name ^ ": raw SOP not built") true (r.O.xi_terms_raw = None);
      let raw = Cover.Petrick.expand_raw r.O.xi_reduced
      and min = Option.get r.O.xi_terms_min in
      Alcotest.(check int) (name ^ ": raw terms") n_raw (List.length raw);
      Alcotest.(check int) (name ^ ": minimal terms") n_min (List.length min);
      Alcotest.(check string) (name ^ ": raw listing digest") digest
        (Digest.to_hex (Digest.string (render_terms raw))))
    registry_petrick_cases

(* 7 opamps, 127 test configurations, and a reduced ξ that keeps 64 of
   them: (C0+C1).(C0+C2)…(C0+C63). That is one candidate too many for a
   term mask, so the flow must fall back to branch-and-bound even
   though the opamp count is within the raised petrick_limit. *)
let test_petrick_width_fallback () =
  let rows = 127 and cols = Cover.Petrick.max_candidates in
  let detect = Array.init rows (fun i -> Array.init cols (fun j -> i = 0 || i = j + 1)) in
  let omega = Array.map (Array.map (fun d -> if d then 50.0 else 0.0)) detect in
  let r = O.optimize ~petrick_limit:7 (O.input_of_matrices ~n_opamps:7 detect omega) in
  Alcotest.(check int) "reduced xi keeps 64 configurations" (cols + 1)
    (IntSet.cardinal (Cover.Clause.candidates r.O.xi_reduced));
  Alcotest.(check bool) "no raw SOP" true (r.O.xi_terms_raw = None);
  Alcotest.(check bool) "no minimal SOP" true (r.O.xi_terms_min = None);
  Alcotest.(check (list int)) "branch-and-bound picks C0" [ 0 ] r.O.choice_a.O.configs

(* `mcdft optimize` lists ξ up to 12 raw terms and otherwise says how
   many it left out *)
let test_cli_xi_listing () =
  let xi_line args =
    let code, out = Cli.capture ("optimize " ^ args) in
    Alcotest.(check int) (args ^ ": exit code") 0 code;
    String.split_on_char '\n' out
    |> List.find_opt (fun l -> String.length l > 10 && String.sub l 0 10 = "  xi (SOP)")
  in
  Alcotest.(check (option string)) "listed at 3 terms"
    (Some "  xi (SOP)            : C1.C2 + C1.C2.C5 + C2.C5")
    (xi_line "tow-thomas --points-per-decade 10");
  Alcotest.(check (option string)) "suppressed at 46 terms"
    (Some "  xi (SOP)            : 46 terms (listing suppressed above 12)")
    (xi_line "tow-thomas --points-per-decade 10 --criterion fixed:0.1");
  Alcotest.(check (option string)) "suppressed at 31,619 terms"
    (Some "  xi (SOP)            : 31619 terms (listing suppressed above 12)")
    (xi_line
       "tt-notch --faults catastrophic --criterion fixed:0.1 --points-per-decade 10")

let suite =
  suite
  @ [
      Alcotest.test_case "registry Petrick fixture" `Quick test_registry_petrick_fixture;
      Alcotest.test_case "Petrick width fallback" `Quick test_petrick_width_fallback;
      Alcotest.test_case "CLI xi listing" `Quick test_cli_xi_listing;
    ]
