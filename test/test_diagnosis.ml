module P = Mcdft_core.Pipeline
module D = Diagnosis.Dictionary
module T = Diagnosis.Trajectory
module CGen = Conformance.Gen
module Oracle = Conformance.Oracle

let pipeline = lazy (P.run ~points_per_decade:12 (Circuits.Tow_thomas.make ()))
let dict = lazy (D.build (Lazy.force pipeline))
let traj = lazy (T.of_pipeline (Lazy.force pipeline))

(* ---- binary pass/fail dictionary ---- *)

let test_dictionary_shape () =
  let d = Lazy.force dict in
  Alcotest.(check int) "7 configurations" 7 (List.length d.D.configs);
  Alcotest.(check int) "8 faults" 8 (Array.length d.D.faults);
  let expected_len = 7 * Array.length d.D.freqs_hz in
  Array.iter
    (fun s -> Alcotest.(check int) "signature length" expected_len (Array.length s))
    d.D.signatures

let test_groups_partition_faults () =
  let d = Lazy.force dict in
  let groups = D.ambiguity_groups d in
  let total = List.fold_left (fun acc g -> acc + List.length g) 0 groups in
  Alcotest.(check int) "partition" (Array.length d.D.faults) total;
  List.iter
    (fun g -> Alcotest.(check bool) "non-empty group" true (g <> []))
    groups

let test_multiconfig_improves_resolution () =
  let t = Lazy.force pipeline in
  let functional_only = D.build ~configs:[ 0 ] t in
  let all_configs = Lazy.force dict in
  Alcotest.(check bool)
    (Printf.sprintf "resolution %.2f (C0) <= %.2f (all)"
       (D.resolution functional_only) (D.resolution all_configs))
    true
    (D.resolution functional_only <= D.resolution all_configs);
  Alcotest.(check bool) "multi-config resolution is high" true
    (D.resolution all_configs >= 0.7)

let test_diagnose_identifies_injected_fault () =
  (* closed loop: simulate each fault's signature and ask the
     dictionary; the true fault must rank at distance 0 *)
  let t = Lazy.force pipeline in
  let d = Lazy.force dict in
  Array.iter
    (fun fault ->
      let observed = D.signature_of t d fault in
      match D.diagnose d observed with
      | [] -> Alcotest.fail "empty diagnosis"
      | ranked ->
          let exact = List.filter (fun (_, dist) -> dist = 0) ranked in
          Alcotest.(check bool)
            (fault.Fault.id ^ " among exact matches")
            true
            (List.exists (fun (f, _) -> f.Fault.id = fault.Fault.id) exact))
    d.D.faults

let test_diagnose_rejects_bad_length () =
  let d = Lazy.force dict in
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Diagnosis.Dictionary.diagnose: signature length mismatch")
    (fun () -> ignore (D.diagnose d [| true |]))

let test_resolution_bounds () =
  let d = Lazy.force dict in
  let r = D.resolution d in
  Alcotest.(check bool) "within [0,1]" true (r >= 0.0 && r <= 1.0)

(* ---- analog trajectory classifier ---- *)

let test_trajectory_shape () =
  let t = Lazy.force traj in
  Alcotest.(check int) "8 faults" 8 (List.length (T.faults t));
  Alcotest.(check int) "7 views" 7 (List.length (T.labels t));
  Alcotest.(check int) "signature length" (T.n_measurements t)
    (Array.length (T.signature t 0))

let test_trajectory_round_trip () =
  (* the trajectory a fault's own simulator produces must classify back
     to that fault (distance exactly 0) or to an ambiguity set
     containing it *)
  let t = Lazy.force traj in
  List.iter
    (fun (f : Fault.t) ->
      let v = T.classify t (T.simulate t f) in
      let hit =
        v.T.fault.Fault.id = f.Fault.id
        || List.exists (fun g -> g.Fault.id = f.Fault.id) v.T.ambiguous
      in
      Alcotest.(check bool) (f.Fault.id ^ " located") true hit;
      Alcotest.(check bool) "confidence within [0,1]" true
        (v.T.confidence >= 0.0 && v.T.confidence <= 1.0))
    (T.faults t)

let test_magnitude_round_trip () =
  (* reconstruct the tester-side |H| log for a fault from its deviation
     signature and the nominal magnitudes; converting back must recover
     the signature and classify to the fault *)
  let t = Lazy.force traj in
  let nom = T.nominal_magnitudes t in
  let sig0 = T.signature t 0 in
  let mags = Array.mapi (fun i s -> nom.(i) +. (s *. Float.max nom.(i) 1e-12)) sig0 in
  let recovered = T.deviations_of_magnitudes t mags in
  Array.iteri
    (fun i s ->
      Alcotest.(check (float 1e-9)) (Printf.sprintf "deviation %d" i) s recovered.(i))
    sig0;
  let v = T.classify t recovered in
  let f0 = List.hd (T.faults t) in
  Alcotest.(check bool) "classified to the reconstructed fault" true
    (v.T.fault.Fault.id = f0.Fault.id
    || List.exists (fun g -> g.Fault.id = f0.Fault.id) v.T.ambiguous)

let test_ambiguity_sets_partition () =
  let t = Lazy.force traj in
  let sets = T.ambiguity_sets t in
  let total = List.fold_left (fun acc g -> acc + List.length g) 0 sets in
  Alcotest.(check int) "partition" (List.length (T.faults t)) total;
  let r = T.resolution t in
  Alcotest.(check bool) "resolution within [0,1]" true (r >= 0.0 && r <= 1.0);
  (* an infinite tolerance collapses everything into one set *)
  Alcotest.(check int) "one set at infinite tolerance" 1
    (List.length (T.ambiguity_sets ~tolerance:infinity t))

let test_config_subset_no_better () =
  (* dropping measurements can only lose diagnostic power *)
  let p = Lazy.force pipeline in
  let t_all = Lazy.force traj in
  let t_sub = T.of_pipeline ~configs:[ 0 ] p in
  Alcotest.(check bool)
    (Printf.sprintf "resolution %.2f (C0) <= %.2f (all)" (T.resolution t_sub)
       (T.resolution t_all))
    true
    (T.resolution t_sub <= T.resolution t_all)

let test_trajectory_rejects_bad_input () =
  let t = Lazy.force traj in
  (match T.classify t [| 0.0 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "classify accepted a short observation");
  (match T.deviations_of_magnitudes t [| 1.0; 2.0 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "deviations_of_magnitudes accepted a short log");
  match T.of_pipeline ~configs:[ 99 ] (Lazy.force pipeline) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "of_pipeline accepted an out-of-range config"

let test_unknown_element_simulate () =
  let t = Lazy.force traj in
  match T.simulate t (Fault.deviation ~element:"RZZZ" 1.2) with
  | exception Fault.Unknown_element "RZZZ" -> ()
  | exception e -> Alcotest.failf "wrong exception: %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "simulate accepted an unknown element"

(* ---- diagnosis round-trip over the conformance generators ---- *)

let qcheck_gen_family_round_trip =
  let diagnosis_oracle =
    match Oracle.find "diagnosis" with
    | Some o -> o
    | None -> failwith "diagnosis oracle not registered"
  in
  QCheck.Test.make ~count:12 ~name:"diagnosis round-trip over Gen families"
    QCheck.(pair (oneofl CGen.families) (int_bound 1000))
    (fun (family, seed) ->
      let s = CGen.generate family ~seed in
      match Oracle.run diagnosis_oracle s with
      | Oracle.Pass | Oracle.Skip _ -> true
      | Oracle.Fail m ->
          QCheck.Test.fail_reportf "%s seed %d: %s" (CGen.family_name family) seed m)

(* [mcdft diagnose --configs] without a fault to simulate prints both
   resolutions over the measured configurations: the dictionary's is
   built from those configurations too, not from all of them. On
   tow-thomas at ppd 10, C0 alone resolves 1 of 3 detectable faults
   where all seven configurations resolve 6 of 8. *)
let test_cli_configs_dictionary () =
  let t = P.run ~points_per_decade:10 (Circuits.Tow_thomas.make ()) in
  let line configs =
    Printf.sprintf "trajectory resolution: %.1f%%   (dictionary: %.1f%%)"
      (100.0 *. T.resolution (T.of_pipeline ?configs t))
      (100.0 *. D.resolution (D.build ?configs t))
  in
  List.iter
    (fun (args, configs) ->
      let code, out = Cli.capture ("diagnose tow-thomas --points-per-decade 10" ^ args) in
      Alcotest.(check int) ("exit code" ^ args) 0 code;
      let expected = line configs in
      if not (List.mem expected (String.split_on_char '\n' out)) then
        Alcotest.failf "diagnose%s: no line %S in\n%s" args expected out)
    [ ("", None); (" --configs 0", Some [ 0 ]) ];
  Alcotest.(check bool) "C0 alone resolves less than every configuration" true
    (D.resolution (D.build ~configs:[ 0 ] t) < D.resolution (D.build t))

let suite =
  [
    Alcotest.test_case "dictionary shape" `Quick test_dictionary_shape;
    Alcotest.test_case "groups partition" `Quick test_groups_partition_faults;
    Alcotest.test_case "multiconfig improves resolution" `Quick test_multiconfig_improves_resolution;
    Alcotest.test_case "closed-loop diagnosis" `Quick test_diagnose_identifies_injected_fault;
    Alcotest.test_case "bad length rejected" `Quick test_diagnose_rejects_bad_length;
    Alcotest.test_case "resolution bounds" `Quick test_resolution_bounds;
    Alcotest.test_case "trajectory shape" `Quick test_trajectory_shape;
    Alcotest.test_case "trajectory round trip" `Quick test_trajectory_round_trip;
    Alcotest.test_case "magnitude round trip" `Quick test_magnitude_round_trip;
    Alcotest.test_case "ambiguity sets partition" `Quick test_ambiguity_sets_partition;
    Alcotest.test_case "config subset no better" `Quick test_config_subset_no_better;
    Alcotest.test_case "bad trajectory input rejected" `Quick
      test_trajectory_rejects_bad_input;
    Alcotest.test_case "unknown element on simulate" `Quick
      test_unknown_element_simulate;
    Alcotest.test_case "CLI diagnose --configs: dictionary over the measured set" `Quick
      test_cli_configs_dictionary;
    QCheck_alcotest.to_alcotest qcheck_gen_family_round_trip;
  ]
