(* Table-driven check of the documented CLI exit-code contract, driven
   against the real binary and real fixtures:

     0  success
     1  invalid input (unknown benchmark, bad flag value)
     3  singular system reached the solver (a dead test configuration —
        source cut off from the output — builds no system, so a
        singular one is not an error)
     4  unknown fault element
     5  file i/o error
     6  netlist rejected by the pre-flight lint

   The distinction between 3 and 6 is load-bearing: a structurally
   detectable defect (voltage-source loop) must be caught by the lint
   before any matrix is built, while a numerically singular but
   structurally full-rank netlist (fixtures/singular_vcvs.cir) must
   sail through the lint and fail in the LU. *)

let table =
  [
    ("list", "list", 0);
    ("tf on a benchmark", "tf tow-thomas", 0);
    ("unknown benchmark", "tf no-such-benchmark", 1);
    ( "numerically singular netlist",
      "tf fixtures/singular_vcvs.cir --output y",
      3 );
    (* fixtures/dead_singular.cir is singular only in configuration C2,
       whose source cannot reach the output: the campaign decides that
       view from its structure and never builds its system *)
    ( "singular dead configuration",
      "optimize fixtures/dead_singular.cir --output out1 --points-per-decade 2",
      0 );
    ( "unknown fault element",
      "analyze tow-thomas --fault-element RZZZ --points-per-decade 2",
      4 );
    ( "unknown element in a diagnose self-test",
      "diagnose tow-thomas --simulate RZZZ --points-per-decade 2",
      4 );
    ( "diagnose self-test locates the fault",
      "diagnose tow-thomas --simulate R1+20% --points-per-decade 3",
      0 );
    ( "optimize accepts an n-detect target",
      "optimize tow-thomas --n-detect 2 --points-per-decade 3",
      0 );
    (* flag-value validation happens in cmdliner's conv layer, which
       owns exit 124 for CLI errors (same as --points-per-decade 0) *)
    ( "n-detect must be positive",
      "optimize tow-thomas --n-detect 0",
      124 );
    ( "missing diagnose observation file is an i/o error",
      "diagnose tow-thomas --observe no/such/log.txt --points-per-decade 2",
      5 );
    (* a path that exists but cannot be read as a netlist file; a
       *missing* .cir path falls through to benchmark lookup (exit 1) *)
    ("unreadable netlist path", "tf fixtures", 5);
    ("missing netlist path is an unknown benchmark", "tf no/such/file.cir", 1);
    ("lint-rejected netlist", "tf fixtures/vloop.cir", 6);
    (* removed options are unknown options: cmdliner's usage exit *)
    ("matrix --no-certify is gone", "matrix tow-thomas --no-certify", 124);
    ("optimize --no-certify is gone", "optimize tow-thomas --no-certify", 124);
    ("testplan --no-certify is gone", "testplan tow-thomas --no-certify", 124);
    ("diagnose --no-certify is gone", "diagnose tow-thomas --no-certify", 124);
    ("blocks --no-certify is gone", "blocks tow-thomas --no-certify", 124);
    ("matrix --prefilter is gone", "matrix tow-thomas --prefilter", 124);
    ("matrix --solve-budget is gone", "matrix tow-thomas --solve-budget 5", 124);
    ("matrix --backend is gone", "matrix tow-thomas --backend sparse", 124);
    ("matrix --adaptive is gone", "matrix tow-thomas --adaptive", 124);
    ("optimize --no-adaptive is gone", "optimize tow-thomas --no-adaptive", 124);
    (* a 60-stage RC ladder's symbolic determinant overflows the float
       range: lint's certification pass falls back to a 1 kHz centre
       like the loader does, instead of dying in Poly.roots *)
    ("lint on a 60-stage RC ladder", "lint fixtures/rc_ladder60.cir", 0);
  ]

let test_exit_codes () =
  Alcotest.(check bool)
    "binary present beside the test directory" true (Sys.file_exists Cli.mcdft);
  List.iter
    (fun (what, cmd, expected) ->
      Alcotest.(check int)
        (Printf.sprintf "%s (`mcdft %s`)" what cmd)
        expected (Cli.exit_code cmd))
    table

let test_fuzz_exit_codes () =
  (* healthy campaign exits 0; a replay of a checked-in repro on the
     healthy engine exits 1 ("no longer reproduces") *)
  Cli.with_temp_dir "mcdft-repros" (fun dir ->
      Alcotest.(check int) "fuzz healthy campaign" 0
        (Cli.exit_code ("fuzz --seed 7 --cases 4 --shrink-dir " ^ Filename.quote dir)));
  Alcotest.(check int) "replay on healthy engine" 1
    (Cli.exit_code
       "fuzz --replay fixtures/shrunk/ladder-0--rank1-updates.expected.json");
  Alcotest.(check int) "replay of a missing repro is an i/o error" 5
    (Cli.exit_code "fuzz --replay fixtures/shrunk/nope.expected.json")

(* A written bigladder-100 netlist: its symbolic determinant overflows
   the float range, so the centre-frequency estimate has no usable
   poles and must fall back to the default centre instead of dying in
   Poly.roots. The file also exercises the writer/parser round trip of
   its U-named opamp cards. *)
let test_overflowing_centre_estimate () =
  let path = Filename.temp_file "mcdft-bigladder" ".cir" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let netlist, _ =
    Conformance.Gen.bigladder ~stages:100 (Random.State.make [| 0x5bad; 100 |])
  in
  Spice.Writer.to_file path netlist;
  Alcotest.(check int) "optimize on a bigladder-100 file" 0
    (Cli.exit_code
       (Printf.sprintf "optimize %s --points-per-decade 2" (Filename.quote path)))

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* The CLI cases run from the test executable's directory, where the
   default --snapshot-dir (test/fixtures/snapshots) does not exist: the
   check must name the directory and fail as an i/o error instead of
   reporting every snapshot missing. *)
let test_snapshot_dir_missing () =
  let code, out = Cli.capture "fuzz --check-snapshots" in
  Alcotest.(check int) "missing snapshot directory is an i/o error" 5 code;
  Alcotest.(check bool) "names the directory" true
    (contains ~needle:"snapshot directory test/fixtures/snapshots not found" out);
  Alcotest.(check bool) "suggests --snapshot-dir" true (contains ~needle:"--snapshot-dir" out);
  Alcotest.(check bool) "no per-file missing report" false (contains ~needle:"missing" out);
  Alcotest.(check int) "existing snapshot directory" 0
    (Cli.exit_code "fuzz --check-snapshots --snapshot-dir fixtures/snapshots")

(* --criterion's help names every family its parser accepts *)
let test_criterion_help () =
  let code, out = Cli.capture "matrix --help=plain" in
  Alcotest.(check int) "help exits 0" 0 code;
  List.iter
    (fun family ->
      Alcotest.(check bool) ("--criterion help lists " ^ family) true
        (contains ~needle:family out))
    [ "fixed:EPS"; "envelope:TOL:FLOOR"; "phase:RAD"; "phase-envelope:TOL:FLOOR" ]

let suite =
  [
    Alcotest.test_case "documented exit codes hold against fixtures" `Quick
      test_exit_codes;
    Alcotest.test_case "fuzz subcommand exit codes" `Quick
      test_fuzz_exit_codes;
    Alcotest.test_case "fuzz --check-snapshots without the snapshot directory" `Quick
      test_snapshot_dir_missing;
    Alcotest.test_case "overflowing pole estimate falls back to 1 kHz" `Quick
      test_overflowing_centre_estimate;
    Alcotest.test_case "matrix --help lists every criterion family" `Quick
      test_criterion_help;
  ]
