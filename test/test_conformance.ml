(* The conformance subsystem itself:
   - seeded generation is deterministic and family-diverse;
   - a healthy engine passes every oracle over a mixed campaign;
   - a re-injected Sherman-Morrison denominator-guard bug is caught by
     the rank1-updates oracle and shrinks to a tiny repro (the ISSUE's
     headline acceptance);
   - repro fixtures round-trip through save/load/replay, and the
     checked-in ones replay green on the healthy engine and red under
     the injected bug;
   - golden snapshots match byte-for-byte and drift is detected;
   - Solver.brute_force agrees with Solver.exact on random covers. *)

module Gen = Conformance.Gen
module Oracle = Conformance.Oracle
module Shrink = Conformance.Shrink
module Fuzz = Conformance.Fuzz
module Netlist = Circuit.Netlist

let oracle name =
  match Oracle.find name with
  | Some o -> o
  | None -> Alcotest.failf "oracle %S not registered" name

let netlist_text s = Spice.Writer.to_string s.Gen.netlist

let with_chaos k f =
  Testability.Fastsim.set_chaos (`Smw_denominator k);
  Fun.protect f ~finally:(fun () -> Testability.Fastsim.set_chaos `None)

(* ---- generation ---- *)

let test_gen_deterministic () =
  List.iter
    (fun family ->
      List.iter
        (fun seed ->
          let a = Gen.generate family ~seed and b = Gen.generate family ~seed in
          Alcotest.(check string)
            (Printf.sprintf "%s seed %d netlist" (Gen.family_name family) seed)
            (netlist_text a) (netlist_text b);
          Alcotest.(check string) "label" a.Gen.label b.Gen.label;
          Alcotest.(check string) "source" a.Gen.source b.Gen.source;
          Alcotest.(check string) "output" a.Gen.output b.Gen.output)
        [ 0; 1; 17; 423 ])
    Gen.families

let test_gen_seed_sensitivity () =
  (* different seeds must explore different circuits (not a constant
     generator): at least 8 distinct netlists in 10 ladder seeds *)
  let texts =
    List.init 10 (fun seed -> netlist_text (Gen.generate Gen.Ladder ~seed))
  in
  let distinct = List.sort_uniq compare texts in
  Alcotest.(check bool) "ladder seeds diversify" true (List.length distinct >= 8)

let test_gen_subjects_wellformed () =
  List.iter
    (fun family ->
      List.iter
        (fun seed ->
          let s = Gen.generate family ~seed in
          Alcotest.(check bool)
            (s.Gen.label ^ " source present")
            true
            (Netlist.mem s.Gen.netlist s.Gen.source);
          Alcotest.(check bool)
            (s.Gen.label ^ " output node present")
            true
            (List.mem s.Gen.output (Netlist.nodes s.Gen.netlist)))
        [ 0; 5; 11 ])
    Gen.families

(* ---- healthy engines pass the oracles ---- *)

let config ~seed ~max_cases =
  {
    Fuzz.seed;
    budget_s = None;
    max_cases = Some max_cases;
    families = Gen.families;
    oracles = Oracle.all;
    shrink_dir = None;
    log = ignore;
  }

let test_fuzz_healthy_run () =
  let outcome = Fuzz.run (config ~seed:1 ~max_cases:16) in
  Alcotest.(check int) "cases" 16 outcome.Fuzz.cases;
  Alcotest.(check int) "failures" 0 (List.length outcome.Fuzz.failures);
  Alcotest.(check bool) "mostly passes" true
    (outcome.Fuzz.passes > outcome.Fuzz.skips)

let test_fuzz_deterministic () =
  let config = config ~seed:5 ~max_cases:10 in
  let a = Fuzz.run config and b = Fuzz.run config in
  Alcotest.(check string) "identical summaries" (Fuzz.summary a) (Fuzz.summary b)

(* the CLI wrapper must be deterministic across --jobs too (ISSUE
   acceptance); drive the real binary and compare bytes *)
(* ---- the injected bug is caught and shrunk ---- *)

let find_failing ~oracle family =
  let rec hunt seed =
    if seed > 50 then
      Alcotest.failf "chaos bug never caught on %s seeds 0..50"
        (Gen.family_name family)
    else
      let subject = Gen.generate family ~seed in
      match Oracle.run oracle subject with
      | Oracle.Fail message -> (subject, message)
      | _ -> hunt (seed + 1)
  in
  hunt 0

let test_chaos_bug_caught_and_shrunk () =
  let oracle = oracle "rank1-updates" in
  with_chaos 1.25 (fun () ->
      let subject, _message = find_failing ~oracle Gen.Ladder in
      let shrunk = Shrink.minimize ~oracle subject in
      Alcotest.(check bool)
        (Printf.sprintf "shrunk to <= 8 elements (got %d)"
           (Netlist.size shrunk.Gen.netlist))
        true
        (Netlist.size shrunk.Gen.netlist <= 8);
      Alcotest.(check bool) "shrink never grows" true
        (Netlist.size shrunk.Gen.netlist <= Netlist.size subject.Gen.netlist);
      match Oracle.run oracle shrunk with
      | Oracle.Fail _ -> ()
      | v ->
          Alcotest.failf "shrunk subject no longer fails: %s"
            (Oracle.verdict_to_string v));
  (* chaos off again: the same oracle must be green on the same seeds *)
  let subject = Gen.generate Gen.Ladder ~seed:0 in
  match Oracle.run (Option.get (Oracle.find "rank1-updates")) subject with
  | Oracle.Pass -> ()
  | v -> Alcotest.failf "healthy engine flagged: %s" (Oracle.verdict_to_string v)

let test_repro_roundtrip () =
  let oracle = oracle "rank1-updates" in
  with_chaos 1.25 (fun () ->
      let subject, message = find_failing ~oracle Gen.Ladder in
      let shrunk = Shrink.minimize ~oracle subject in
      Cli.with_temp_dir "mcdft-repros" @@ fun dir ->
      let _cir, json = Shrink.save ~dir ~oracle ~message shrunk in
      match Shrink.load ~expected:json with
      | Error e -> Alcotest.fail e
      | Ok repro ->
          Alcotest.(check string) "oracle name" "rank1-updates"
            repro.Shrink.oracle;
          Alcotest.(check string) "label" shrunk.Gen.label repro.Shrink.label;
          (* value formatting keeps ~6 significant digits, far inside
             the bug's signature: the failure must survive the disk
             round-trip *)
          (match Shrink.replay repro with
          | Ok (Oracle.Fail _) -> ()
          | Ok v ->
              Alcotest.failf "replay under chaos: %s"
                (Oracle.verdict_to_string v)
          | Error e -> Alcotest.fail e))

(* ---- the checked-in shrunk fixtures ---- *)

let shrunk_fixtures =
  [
    Cli.fixture "shrunk/ladder-0--rank1-updates.expected.json";
    Cli.fixture "shrunk/active-0--rank1-updates.expected.json";
    Cli.fixture "shrunk/near-singular-0--rank1-updates.expected.json";
  ]

let test_shrunk_fixtures_regress () =
  List.iter
    (fun expected ->
      match Shrink.load ~expected with
      | Error e -> Alcotest.fail e
      | Ok repro ->
          Alcotest.(check bool)
            (expected ^ " stays a small repro")
            true
            (Netlist.size repro.Shrink.netlist <= 8);
          (* healthy engine: the recorded bug must stay fixed *)
          (match Shrink.replay repro with
          | Ok Oracle.Pass -> ()
          | Ok v ->
              Alcotest.failf "%s on healthy engine: %s" expected
                (Oracle.verdict_to_string v)
          | Error e -> Alcotest.fail e);
          (* and the fixture must still exercise the guarded path: the
             re-injected bug turns it red again *)
          with_chaos 1.25 (fun () ->
              match Shrink.replay repro with
              | Ok (Oracle.Fail _) -> ()
              | Ok v ->
                  Alcotest.failf "%s no longer exercises the bug: %s" expected
                    (Oracle.verdict_to_string v)
              | Error e -> Alcotest.fail e))
    shrunk_fixtures

(* ---- golden snapshots ---- *)

let test_snapshots_match () =
  match Conformance.Snapshot.check ~dir:(Cli.fixture "snapshots") with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let test_snapshot_drift_detected () =
  Cli.with_temp_dir "mcdft-snapshots" @@ fun dir ->
  let paths = Conformance.Snapshot.update ~dir in
  (match Conformance.Snapshot.check ~dir with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("freshly written snapshots drift: " ^ msg));
  (* flip one byte: the comparison must notice *)
  let victim = List.hd paths in
  let ic = open_in_bin victim in
  let body = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin victim in
  output_string oc body;
  output_string oc " ";
  close_out oc;
  match Conformance.Snapshot.check ~dir with
  | Ok () -> Alcotest.fail "byte-level drift not detected"
  | Error _ -> ()

(* ---- brute-force vs exact covers ---- *)

let qcheck_brute_matches_exact =
  QCheck.Test.make ~name:"Solver.exact cost = Solver.brute_force cost" ~count:200
    (QCheck.make QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let rows = 2 + Random.State.int rng 5
      and cols = 1 + Random.State.int rng 8 in
      let m =
        Array.init rows (fun _ ->
            Array.init cols (fun _ -> Random.State.bool rng))
      in
      let clause = Cover.Clause.of_matrix m in
      let weighted = Random.State.bool rng in
      let cost = if weighted then Some (fun i -> 1.0 +. (0.3 *. float_of_int i)) else None in
      let exact = Cover.Solver.(cover_exn (exact ?cost clause)) in
      let brute = Cover.Solver.(cover_exn (brute_force ?cost clause)) in
      let greedy = Cover.Solver.(cover_exn (greedy ?cost clause)) in
      (* the two searches may return *different* minimal covers whose
         float costs differ in the last ulp (the 0.3·i weights are
         inexact and the summation orders differ), so the optimality
         checks compare with an ulp-level slack rather than [=] *)
      let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs b) in
      let c_exact = Cover.Solver.cost_of ?cost exact in
      Cover.Clause.is_cover clause exact
      && Cover.Clause.is_cover clause brute
      && Cover.Clause.is_cover clause greedy
      && close (Cover.Solver.cost_of ?cost brute) c_exact
      && Cover.Solver.cost_of ?cost greedy >= c_exact -. (1e-9 *. Float.max 1.0 c_exact))

let test_brute_force_candidate_limit () =
  let clauses =
    Cover.Clause.of_sets ~n_candidates:24
      [ Cover.Clause.IntSet.of_list (List.init 24 Fun.id) ]
  in
  match Cover.Solver.brute_force clauses with
  | _ -> Alcotest.fail "expected Invalid_argument beyond 20 candidates"
  | exception Invalid_argument _ -> ()

(* ---- oracle registry hygiene ---- *)

let test_oracle_registry () =
  let names = List.map (fun o -> o.Oracle.name) Oracle.all in
  Alcotest.(check int) "ten oracles" 10 (List.length names);
  Alcotest.(check bool) "names unique" true
    (List.length (List.sort_uniq compare names) = List.length names);
  List.iter
    (fun n ->
      match Oracle.find n with
      | Some o -> Alcotest.(check string) "find is by name" n o.Oracle.name
      | None -> Alcotest.failf "find %S" n)
    names;
  Alcotest.(check bool) "unknown name" true (Oracle.find "nope" = None)

let test_oracle_guard_rails () =
  (* a subject whose output node vanished must be skipped, not crash —
     the shrinker relies on this to reject destructive removals *)
  let s = Gen.generate Gen.Ladder ~seed:3 in
  let broken = { s with Gen.output = "no_such_node" } in
  List.iter
    (fun o ->
      match Oracle.run o broken with
      | Oracle.Skip _ -> ()
      | v ->
          Alcotest.failf "%s on broken subject: %s" o.Oracle.name
            (Oracle.verdict_to_string v))
    Oracle.all

let suite =
  [
    Alcotest.test_case "generation is seed-deterministic" `Quick
      test_gen_deterministic;
    Alcotest.test_case "generation diversifies across seeds" `Quick
      test_gen_seed_sensitivity;
    Alcotest.test_case "subjects are well-formed" `Quick
      test_gen_subjects_wellformed;
    Alcotest.test_case "oracle registry is well-formed" `Quick
      test_oracle_registry;
    Alcotest.test_case "healthy engines pass a mixed campaign" `Slow
      test_fuzz_healthy_run;
    Alcotest.test_case "campaigns are run-to-run deterministic" `Quick
      test_fuzz_deterministic;
    Alcotest.test_case "injected SMW-guard bug is caught and shrunk small" `Slow
      test_chaos_bug_caught_and_shrunk;
    Alcotest.test_case "repro fixtures round-trip save/load/replay" `Slow
      test_repro_roundtrip;
    Alcotest.test_case "checked-in shrunk fixtures regress both ways" `Slow
      test_shrunk_fixtures_regress;
    Alcotest.test_case "golden snapshots match byte-for-byte" `Quick
      test_snapshots_match;
    Alcotest.test_case "snapshot drift is detected" `Quick
      test_snapshot_drift_detected;
    QCheck_alcotest.to_alcotest qcheck_brute_matches_exact;
    Alcotest.test_case "brute_force refuses > 20 candidates" `Quick
      test_brute_force_candidate_limit;
    Alcotest.test_case "oracles skip malformed subjects" `Quick
      test_oracle_guard_rails;
  ]
