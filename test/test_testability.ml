module Netlist = Circuit.Netlist
module Grid = Testability.Grid
module Detect = Testability.Detect
module Matrix = Testability.Matrix

(* The campaign driver, matrices only. *)
let build ?criterion ?jobs grid views faults =
  fst (Mcdft_core.Adaptive.build ?criterion ?jobs grid views faults)

let rc ~r ~c () =
  Netlist.empty ~title:"rc" ()
  |> Netlist.vsource ~name:"V1" "in" "0" 1.0
  |> Netlist.resistor ~name:"R1" "in" "out" r
  |> Netlist.capacitor ~name:"C1" "out" "0" c

let probe = { Detect.source = "V1"; output = "out" }

let analyze_fault ~criterion probe grid n fault =
  List.hd (Detect.analyze ~criterion probe grid n [ fault ])

(* --- grids --- *)

let test_grid_bounds () =
  let g = Grid.make ~points_per_decade:10 ~f_lo:10.0 ~f_hi:1000.0 () in
  Alcotest.(check (float 1e-9)) "f_lo" 10.0 (Grid.f_lo g);
  Alcotest.(check (float 1e-6)) "f_hi" 1000.0 (Grid.f_hi g);
  Alcotest.(check (float 1e-9)) "decades" 2.0 (Grid.log_measure g);
  Alcotest.(check int) "points" 21 (Grid.n_points g)

let test_grid_around () =
  let g = Grid.around ~center_hz:1000.0 () in
  Alcotest.(check (float 1e-6)) "lo" 10.0 (Grid.f_lo g);
  Alcotest.(check (float 0.01)) "hi" 100_000.0 (Grid.f_hi g)

let test_grid_invalid () =
  Alcotest.check_raises "inverted" (Invalid_argument "Grid.make: f_lo >= f_hi") (fun () ->
      ignore (Grid.make ~f_lo:10.0 ~f_hi:1.0 ()))

let test_point_intervals_tile () =
  let g = Grid.make ~points_per_decade:7 ~f_lo:1.0 ~f_hi:100.0 () in
  let total =
    Util.Floatx.fold_range (Grid.n_points g) ~init:0.0 ~f:(fun acc i ->
        acc +. Util.Interval.length (Grid.point_interval g i))
  in
  Alcotest.(check (float 1e-9)) "tiles exactly" (Grid.log_measure g) total

(* --- deviation and detection --- *)

let test_response_deviation () =
  let c x = Complex.{ re = x; im = 0.0 } in
  let dev =
    Detect.response_deviation ~nominal:[| c 1.0; c 2.0; c 0.0 |]
      ~faulty:[| c 1.1; c 1.0; c 0.0 |]
  in
  Alcotest.(check (float 1e-9)) "10%" 0.1 dev.(0);
  Alcotest.(check (float 1e-9)) "50%" 0.5 dev.(1);
  Alcotest.(check (float 1e-9)) "0/0" 0.0 dev.(2)

let test_detect_rc_shift () =
  (* +20% on R shifts the corner down; with eps = 10% the fault is
     detectable around and above the corner, not at DC *)
  let n = rc ~r:1000.0 ~c:1e-6 () in
  let grid = Grid.around ~points_per_decade:20 ~center_hz:159.0 () in
  let fault = Fault.deviation ~element:"R1" 1.2 in
  let r =
    analyze_fault ~criterion:(Detect.Fixed_tolerance 0.10) probe grid n fault
  in
  Alcotest.(check bool) "detectable" true r.Detect.detectable;
  Alcotest.(check bool) "partially" true (r.Detect.omega_det > 0.0 && r.Detect.omega_det < 1.0);
  (* DC is not in the detectability region: deviation vanishes there *)
  Alcotest.(check bool) "dc clean" false
    (Util.Interval.Set.contains r.Detect.regions (log10 (Grid.f_lo grid)))

let test_undetectable_small_deviation () =
  let n = rc ~r:1000.0 ~c:1e-6 () in
  let grid = Grid.around ~points_per_decade:10 ~center_hz:159.0 () in
  let fault = Fault.deviation ~element:"R1" 1.01 in
  let r =
    analyze_fault ~criterion:(Detect.Fixed_tolerance 0.10) probe grid n fault
  in
  Alcotest.(check bool) "1% drift invisible at eps=10%" false r.Detect.detectable;
  Alcotest.(check (float 0.0)) "omega zero" 0.0 r.Detect.omega_det

let test_omega_det_bounds () =
  let n = rc ~r:1000.0 ~c:1e-6 () in
  let grid = Grid.around ~points_per_decade:10 ~center_hz:159.0 () in
  List.iter
    (fun r ->
      Alcotest.(check bool) "omega in [0,1]" true
        (r.Detect.omega_det >= 0.0 && r.Detect.omega_det <= 1.0);
      Alcotest.(check bool) "detectable iff omega > 0" true
        (r.Detect.detectable = (r.Detect.omega_det > 0.0)))
    (Detect.analyze probe grid n (Fault.both_deviations n @ Fault.catastrophic_faults n))

let test_catastrophic_strongly_detectable () =
  let n = rc ~r:1000.0 ~c:1e-6 () in
  let grid = Grid.around ~points_per_decade:10 ~center_hz:159.0 () in
  let results = Detect.analyze probe grid n (Fault.catastrophic_faults n) in
  List.iter
    (fun r ->
      Alcotest.(check bool) (r.Detect.fault.Fault.id ^ " detected") true r.Detect.detectable)
    results

let test_envelope_masks_small_faults () =
  (* under the process-envelope criterion, a fault the size of the
     process tolerance itself must be invisible *)
  let n = rc ~r:1000.0 ~c:1e-6 () in
  let grid = Grid.around ~points_per_decade:10 ~center_hz:159.0 () in
  let criterion = Detect.Process_envelope { component_tol = 0.05; floor = 0.01 } in
  let fault = Fault.deviation ~element:"R1" 1.05 in
  let r = analyze_fault ~criterion probe grid n fault in
  Alcotest.(check bool) "masked" false r.Detect.detectable

let test_envelope_vs_fixed_ordering () =
  (* the envelope threshold is at least the floor everywhere, so any
     fault detectable under it is also detectable at eps = floor *)
  let n = rc ~r:1000.0 ~c:1e-6 () in
  let grid = Grid.around ~points_per_decade:10 ~center_hz:159.0 () in
  let faults = Fault.deviation_faults n in
  let envelope =
    Detect.analyze
      ~criterion:(Detect.Process_envelope { component_tol = 0.04; floor = 0.02 })
      probe grid n faults
  in
  let fixed = Detect.analyze ~criterion:(Detect.Fixed_tolerance 0.02) probe grid n faults in
  List.iter2
    (fun (e : Detect.result) (f : Detect.result) ->
      if e.Detect.detectable then
        Alcotest.(check bool) "envelope implies fixed-at-floor" true f.Detect.detectable)
    envelope fixed

let test_coverage_stats () =
  let mk detectable omega_det =
    {
      Detect.fault = Fault.deviation ~element:"R1" 1.2;
      detectable;
      omega_det;
      regions = Util.Interval.Set.empty;
    }
  in
  Alcotest.(check (float 1e-9)) "coverage" 0.5
    (Detect.fault_coverage [ mk true 0.4; mk false 0.0 ]);
  Alcotest.(check (float 1e-9)) "avg omega" 0.2
    (Detect.average_omega_det [ mk true 0.4; mk false 0.0 ]);
  Alcotest.(check (float 0.0)) "empty coverage" 0.0 (Detect.fault_coverage []);
  Alcotest.(check (float 0.0)) "empty avg" 0.0 (Detect.average_omega_det [])

(* --- matrix --- *)

let test_matrix_build () =
  (* two views of the same RC with different probe outputs *)
  let n = rc ~r:1000.0 ~c:1e-6 () in
  let grid = Grid.around ~points_per_decade:10 ~center_hz:159.0 () in
  let views =
    [
      { Matrix.label = "out"; netlist = n; probe };
      { Matrix.label = "in"; netlist = n; probe = { probe with Detect.output = "in" } };
    ]
  in
  let faults = Fault.deviation_faults n in
  let m = build ~criterion:(Detect.Fixed_tolerance 0.10) grid views faults in
  Alcotest.(check int) "views" 2 (Matrix.n_views m);
  Alcotest.(check int) "faults" 2 (Matrix.n_faults m);
  (* the "in" view observes the source directly: no fault detectable *)
  Alcotest.(check (float 0.0)) "blind view" 0.0 (Matrix.coverage_of_view m 1);
  Alcotest.(check (float 0.0)) "good view" 1.0 (Matrix.coverage_of_view m 0);
  Alcotest.(check (float 0.0)) "max coverage" 1.0 (Matrix.max_fault_coverage m);
  Alcotest.(check bool) "anywhere" true (Matrix.detectable_anywhere m 0)

let test_matrix_best_omega () =
  let n = rc ~r:1000.0 ~c:1e-6 () in
  let grid = Grid.around ~points_per_decade:10 ~center_hz:159.0 () in
  let views =
    [
      { Matrix.label = "out"; netlist = n; probe };
      { Matrix.label = "in"; netlist = n; probe = { probe with Detect.output = "in" } };
    ]
  in
  let m = build ~criterion:(Detect.Fixed_tolerance 0.10) grid views (Fault.deviation_faults n) in
  Alcotest.(check (float 1e-9)) "best over both = view 0" (m.Matrix.omega.(0).(0))
    (Matrix.best_omega_det m 0);
  Alcotest.(check (float 1e-9)) "restricted to blind view" 0.0
    (Matrix.best_omega_det_over m [ 1 ] 0);
  Alcotest.(check (float 1e-9)) "average over blind view" 0.0
    (Matrix.average_best_omega_det ~views:[ 1 ] m)

let suite =
  [
    Alcotest.test_case "grid bounds" `Quick test_grid_bounds;
    Alcotest.test_case "grid around" `Quick test_grid_around;
    Alcotest.test_case "grid invalid" `Quick test_grid_invalid;
    Alcotest.test_case "point intervals tile" `Quick test_point_intervals_tile;
    Alcotest.test_case "response deviation" `Quick test_response_deviation;
    Alcotest.test_case "rc shift detection" `Quick test_detect_rc_shift;
    Alcotest.test_case "small deviation invisible" `Quick test_undetectable_small_deviation;
    Alcotest.test_case "omega bounds" `Quick test_omega_det_bounds;
    Alcotest.test_case "catastrophic detected" `Quick test_catastrophic_strongly_detectable;
    Alcotest.test_case "envelope masks tolerance-sized faults" `Quick test_envelope_masks_small_faults;
    Alcotest.test_case "envelope implies fixed-at-floor" `Quick test_envelope_vs_fixed_ordering;
    Alcotest.test_case "coverage stats" `Quick test_coverage_stats;
    Alcotest.test_case "matrix build" `Quick test_matrix_build;
    Alcotest.test_case "matrix best omega" `Quick test_matrix_best_omega;
  ]

let test_parallel_build_matches_sequential () =
  let b = Circuits.Tow_thomas.make () in
  let dft = Multiconfig.Transform.make ~source:"Vin" ~output:"v2" b.Circuits.Benchmark.netlist in
  let g = Grid.around ~points_per_decade:6 ~center_hz:1000.0 () in
  let faults = Fault.deviation_faults b.Circuits.Benchmark.netlist in
  let views =
    List.map
      (fun config ->
        { Matrix.label = Multiconfig.Configuration.label config;
          netlist = Multiconfig.Transform.emulate dft config;
          probe = { Detect.source = "Vin"; output = "v2" } })
      (Multiconfig.Transform.test_configurations dft)
  in
  let seq = build ~criterion:(Detect.Fixed_tolerance 0.1) g views faults in
  let par = build ~criterion:(Detect.Fixed_tolerance 0.1) ~jobs:4 g views faults in
  Alcotest.(check bool) "same detect" true (seq.Matrix.detect = par.Matrix.detect);
  Alcotest.(check bool) "same omega" true (seq.Matrix.omega = par.Matrix.omega)

let suite =
  suite @ [ Alcotest.test_case "parallel = sequential" `Quick test_parallel_build_matches_sequential ]

let test_grid_rejects_nonpositive_density () =
  Alcotest.check_raises "ppd 0"
    (Invalid_argument "Grid.make: points_per_decade must be positive") (fun () ->
      ignore (Grid.make ~points_per_decade:0 ~f_lo:1.0 ~f_hi:10.0 ()))

let suite =
  suite
  @ [ Alcotest.test_case "grid density guard" `Quick test_grid_rejects_nonpositive_density ]

(* --- the campaign's point scorer --- *)

(* Score every point of one row through [Detect.score_point] and check
   its contract against [Detect.anchor]: an anchored point is 'u', a
   solved point 'd' or 'u'. Returns the (anchored, detected) point
   counts. *)
let check_row what pv plan grid =
  let anchored = ref 0 and detected = ref 0 in
  for k = 0 to Grid.n_points grid - 1 do
    let b = Detect.score_point pv plan k in
    if b = 'd' then incr detected;
    match Detect.anchor pv plan k with
    | 'u' ->
        incr anchored;
        if b <> 'u' then Alcotest.failf "%s, point %d: anchored, scored '%c'" what k b
    | '?' ->
        if b <> 'd' && b <> 'u' then
          Alcotest.failf "%s, point %d: scored '%c'" what k b
    | a -> Alcotest.failf "%s, point %d: anchor '%c'" what k a
  done;
  (!anchored, !detected)

let test_score_point_contract () =
  let grid = Grid.around ~points_per_decade:6 ~center_hz:1000.0 () in
  let nf = Grid.n_points grid in
  let criterion = Detect.Fixed_tolerance 0.1 in
  (* every row of every configuration of the dead-and-singular fixture;
     the dead view's rows are anchored throughout *)
  let n =
    match Spice.Parser.parse_file (Cli.fixture "dead_singular.cir") with
    | Ok n -> n
    | Error e -> Alcotest.fail (Spice.Parser.error_to_string e)
  in
  let dft = Multiconfig.Transform.make ~source:"V1" ~output:"out1" n in
  let dead_rows = ref 0 and solved = ref 0 in
  List.iter
    (fun config ->
      let view = Multiconfig.Transform.emulate dft config in
      let pv = Detect.prepare_view ~criterion { Detect.source = "V1"; output = "out1" } grid view in
      List.iter
        (fun fault ->
          let what = Multiconfig.Configuration.label config ^ " / " ^ fault.Fault.id in
          let anchored, _ = check_row what pv (Detect.plan_fault pv fault) grid in
          if Detect.view_dead pv then begin
            incr dead_rows;
            Alcotest.(check int) (what ^ ": dead row anchored") nf anchored
          end
          else solved := !solved + nf - anchored)
        (Fault.catastrophic_faults view))
    (Multiconfig.Transform.test_configurations dft);
  Alcotest.(check bool) "dead rows scored" true (!dead_rows > 0);
  Alcotest.(check bool) "live points solved" true (!solved > 0);
  let score probe netlist fault =
    let pv = Detect.prepare_view ~criterion probe grid netlist in
    let plan = Detect.plan_fault pv fault in
    (plan, check_row fault.Fault.id pv plan grid)
  in
  (* an isolated passive: the divider behind an ideal buffer *)
  let buffered =
    Netlist.empty ~title:"buffered" ()
    |> Netlist.vsource ~name:"V1" "in" "0" 1.0
    |> Netlist.resistor ~name:"R1" "in" "a" 1000.0
    |> Netlist.capacitor ~name:"C1" "a" "0" 1e-6
    |> Netlist.opamp ~name:"OP1" ~inp:"a" ~inn:"buf" ~out:"buf"
    |> Netlist.resistor ~name:"R2" "buf" "post" 1000.0
    |> Netlist.resistor ~name:"R3" "post" "0" 1000.0
  in
  let buf = { Detect.source = "V1"; output = "buf" } in
  let plan, (anchored, _) = score buf buffered (Fault.deviation ~element:"R2" 1.2) in
  Alcotest.(check bool) "R2 isolated" true (Detect.plan_isolated plan);
  Alcotest.(check int) "isolated row anchored" nf anchored;
  let _, (anchored, _) = score buf buffered (Fault.deviation ~element:"R1" 1.2) in
  Alcotest.(check int) "R1 row solved" 0 anchored;
  (* a virtual ground: the source reaches it, but its nominal response
     is below the measurement floor everywhere *)
  let inverting =
    Netlist.empty ~title:"inverting" ()
    |> Netlist.vsource ~name:"V1" "in" "0" 1.0
    |> Netlist.resistor ~name:"R1" "in" "n" 1000.0
    |> Netlist.resistor ~name:"R2" "n" "out" 1000.0
    |> Netlist.opamp ~name:"OP1" ~inp:"0" ~inn:"n" ~out:"out"
  in
  let probe = { Detect.source = "V1"; output = "n" } in
  Alcotest.(check bool) "virtual ground is live" false
    (Detect.view_dead (Detect.prepare_view probe grid inverting));
  let _, (anchored, _) = score probe inverting (Fault.deviation ~element:"R1" 1.2) in
  Alcotest.(check int) "masked row anchored" nf anchored;
  (* a failed solve: with C1 gone the buffer input floats *)
  let floating =
    Netlist.empty ~title:"floating" ()
    |> Netlist.vsource ~name:"V1" "in" "0" 1.0
    |> Netlist.capacitor ~name:"C1" "in" "x" 1e-6
    |> Netlist.opamp ~name:"OP1" ~inp:"x" ~inn:"out" ~out:"out"
    |> Netlist.resistor ~name:"R1" "out" "0" 1000.0
  in
  let c1_open = Fault.deviation ~element:"C1" 0.0 in
  let sim =
    Testability.Fastsim.create ~source:"V1" ~output:"out" ~freqs_hz:(Grid.freqs_hz grid)
      floating
  in
  Alcotest.(check bool) "every solve fails" true
    (Array.for_all Option.is_none (Testability.Fastsim.response sim c1_open));
  let _, (_, detected) = score { Detect.source = "V1"; output = "out" } floating c1_open in
  Alcotest.(check int) "every failed solve detectable" nf detected

let suite =
  suite
  @ [ Alcotest.test_case "score_point contract" `Quick test_score_point_contract ]
