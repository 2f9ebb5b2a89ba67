(* Property tests on randomly generated circuits: the numeric AC
   engine, the symbolic engine and the SPICE round-trip must all agree
   on arbitrary RC(L) ladder networks.
   The generator lives in Conformance.Gen (the fuzzer's Ladder family)
   so these properties and the differential oracles explore the same
   topology space. *)

module Netlist = Circuit.Netlist

let random_ladder seed =
  let s = Conformance.Gen.generate Conformance.Gen.Ladder ~seed in
  (s.Conformance.Gen.netlist, s.Conformance.Gen.output)

let gen_seed = QCheck.make QCheck.Gen.(int_bound 1_000_000)

let qcheck_validates =
  QCheck.Test.make ~name:"random ladders validate" ~count:100 gen_seed (fun seed ->
      let netlist, _ = random_ladder seed in
      match Circuit.Validate.check netlist with Ok () -> true | Error _ -> false)

let qcheck_symbolic_matches_numeric =
  QCheck.Test.make ~name:"random ladders: symbolic H(s) = numeric AC" ~count:60 gen_seed
    (fun seed ->
      let netlist, out = random_ladder seed in
      let h = Mna.Symbolic.transfer ~source:"V1" ~output:out netlist in
      List.for_all
        (fun f ->
          let w = 2.0 *. Float.pi *. f in
          let sym = Test_ratfunc.eval_jw h w in
          let num = Mna.Ac.transfer ~source:"V1" ~output:out netlist ~omega:w in
          Complex.norm (Complex.sub sym num)
          <= 1e-5 *. Float.max 1e-6 (Complex.norm num))
        [ 10.0; 1000.0; 100_000.0 ])

let qcheck_spice_roundtrip =
  QCheck.Test.make ~name:"random ladders: SPICE write/parse preserves response"
    ~count:60 gen_seed (fun seed ->
      let netlist, out = random_ladder seed in
      match Spice.Parser.parse_string (Spice.Writer.to_string netlist) with
      | Error _ -> false
      | Ok reparsed ->
          List.for_all
            (fun f ->
              let w = 2.0 *. Float.pi *. f in
              let a = Mna.Ac.transfer ~source:"V1" ~output:out netlist ~omega:w in
              let b = Mna.Ac.transfer ~source:"V1" ~output:out reparsed ~omega:w in
              (* engineering-notation formatting keeps ~6 significant digits *)
              Complex.norm (Complex.sub a b) <= 1e-4 *. Float.max 1e-6 (Complex.norm a))
            [ 100.0; 10_000.0 ])

let qcheck_reciprocity =
  (* passive reciprocal networks: with equal source/load conditions the
     transfer is symmetric under swapping drive and observation through
     identical test fixtures; we check a weaker, always-true invariant
     instead: |H| <= passive bound of 1 for a source-terminated RC
     divider chain with no gain elements *)
  QCheck.Test.make ~name:"random RC ladders are passive (|H| <= 1)" ~count:60 gen_seed
    (fun seed ->
      let netlist, out = random_ladder seed in
      List.for_all
        (fun f ->
          let h =
            Mna.Ac.transfer ~source:"V1" ~output:out netlist
              ~omega:(2.0 *. Float.pi *. f)
          in
          Complex.norm h <= 1.0 +. 1e-9)
        [ 1.0; 50.0; 2500.0; 125_000.0 ])

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_validates;
    QCheck_alcotest.to_alcotest qcheck_symbolic_matches_numeric;
    QCheck_alcotest.to_alcotest qcheck_spice_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_reciprocity;
  ]
