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
        let p = Grid.point_interval g i in
        acc +. (p.Util.Interval.hi -. p.Util.Interval.lo))
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
  let dc = log10 (Grid.f_lo grid) in
  Alcotest.(check bool) "dc clean" false
    (List.exists
       (fun (i : Util.Interval.t) -> i.lo <= dc && dc <= i.hi)
       (Util.Interval.Set.to_intervals r.Detect.regions))

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
      regions = Util.Interval.Set.of_intervals [];
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
  Alcotest.(check bool) "blind view" true (Array.for_all not m.Matrix.detect.(1));
  Alcotest.(check bool) "good view" true (Array.for_all Fun.id m.Matrix.detect.(0));
  Alcotest.(check (float 0.0)) "max coverage" 1.0 (Matrix.max_fault_coverage m)

let test_matrix_best_omega () =
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
  (* fault 0 alone: the average over faults is its best view's ω *)
  let m0 = build ~criterion:(Detect.Fixed_tolerance 0.10) grid views [ List.hd faults ] in
  let avg_omega (m : Matrix.t) views =
    Mcdft_core.Optimizer.avg_omega_of
      { Mcdft_core.Optimizer.n_opamps = 1; detect = m.Matrix.detect; omega = m.Matrix.omega }
      views
  in
  Alcotest.(check (float 1e-9)) "best over both = view 0" (m0.Matrix.omega.(0).(0))
    (avg_omega m0 [ 0; 1 ]);
  Alcotest.(check (float 1e-9)) "restricted to blind view" 0.0 (avg_omega m0 [ 1 ]);
  Alcotest.(check (float 1e-9)) "average over blind view" 0.0 (avg_omega m [ 1 ])

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

(* --- the campaign's row scorer --- *)

(* Score one row through [Detect.score_rows] and check its contract:
   one 'd' or 'u' per point, 'u' and deviation 0 below the measurement
   floor, and one solve per point above it unless the row is isolated
   or the view dead. Returns the (solved, detected) point counts. *)
let check_row what pv plan grid =
  let verdicts, deviations, solved = (Detect.score_rows pv [| plan |]).(0) in
  let nf = Grid.n_points grid in
  Alcotest.(check int) (what ^ ": one verdict per point") nf (Bytes.length verdicts);
  Alcotest.(check int) (what ^ ": one deviation per point") nf (Array.length deviations);
  Array.iteri
    (fun k d ->
      if (Detect.below_floor pv k || Detect.plan_isolated plan) && d <> 0.0 then
        Alcotest.failf "%s, point %d: masked, deviation %g" what k d)
    deviations;
  let detected = ref 0 and open_points = ref 0 in
  Bytes.iteri
    (fun k b ->
      if not (Detect.below_floor pv k) then incr open_points
      else if b <> 'u' then
        Alcotest.failf "%s, point %d: below the floor, scored '%c'" what k b;
      match b with
      | 'd' -> incr detected
      | 'u' -> ()
      | b -> Alcotest.failf "%s, point %d: scored '%c'" what k b)
    verdicts;
  let expected =
    if Detect.plan_isolated plan || Detect.view_dead pv then 0 else !open_points
  in
  Alcotest.(check int) (what ^ ": points solved") expected solved;
  (solved, !detected)

let test_score_row_contract () =
  let grid = Grid.around ~points_per_decade:6 ~center_hz:1000.0 () in
  let nf = Grid.n_points grid in
  let criterion = Detect.Fixed_tolerance 0.1 in
  (* every row of every configuration of the dead-and-singular fixture;
     the dead view's rows solve nothing *)
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
          let row_solved, _ = check_row what pv (Detect.plan_fault pv fault) grid in
          if Detect.view_dead pv then begin
            incr dead_rows;
            Alcotest.(check int) (what ^ ": dead row solves nothing") 0 row_solved
          end
          else solved := !solved + row_solved)
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
  let plan, (solved, _) = score buf buffered (Fault.deviation ~element:"R2" 1.2) in
  Alcotest.(check bool) "R2 isolated" true (Detect.plan_isolated plan);
  Alcotest.(check int) "isolated row solves nothing" 0 solved;
  let _, (solved, _) = score buf buffered (Fault.deviation ~element:"R1" 1.2) in
  Alcotest.(check int) "R1 row solves every point" nf solved;
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
  let _, (solved, _) = score probe inverting (Fault.deviation ~element:"R1" 1.2) in
  Alcotest.(check int) "masked row solves nothing" 0 solved;
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
  @ [ Alcotest.test_case "score_row contract" `Quick test_score_row_contract ]

(* --- output cones --- *)

(* A view's engine solves its output cone: here V2, a zero source that
   pins s, drives the only stiff node of the cone, and R3 on s is
   isolated, so the cone drops it. A fault on a passive moves the
   output through the cone alone, but opening V2 frees s and brings R3
   back: the output divider goes from R2/(R1+R2) = 0.5 to
   (R2+R3)/(R1+R2+R3) = 0.6, a 20 % deviation (a cone without R3 would
   read 100 %), against 33 % for doubling R2. Such a fault is solved on
   the whole view, in the campaign and in Detect.analyze alike. *)
let test_cone_non_passive_fault () =
  let netlist =
    Netlist.empty ~title:"pinned divider" ()
    |> Netlist.vsource ~name:"V1" "in" "0" 1.0
    |> Netlist.resistor ~name:"R1" "in" "a" 1000.0
    |> Netlist.resistor ~name:"R2" "a" "s" 1000.0
    |> Netlist.vsource ~name:"V2" "s" "0" 0.0
    |> Netlist.resistor ~name:"R3" "s" "0" 500.0
  in
  let probe = { Detect.source = "V1"; output = "a" } in
  let s = Detect.structure probe netlist in
  Alcotest.(check bool) "the cone drops the isolated R3" false
    (Netlist.mem (Detect.engine_netlist s) "R3");
  let grid = Grid.around ~points_per_decade:2 ~center_hz:1000.0 () in
  let v2_open = { Fault.id = "V2-open"; element = "V2"; kind = Fault.Open_circuit } in
  let r2_up = Fault.deviation ~element:"R2" 2.0 in
  let view = { Matrix.label = "C0"; netlist; probe } in
  List.iter
    (fun (eps, expected) ->
      let criterion = Detect.Fixed_tolerance eps in
      let results = Detect.analyze ~criterion probe grid netlist [ v2_open; r2_up ] in
      Alcotest.(check (list bool))
        (Printf.sprintf "fixed:%g verdicts" eps)
        expected
        (List.map (fun r -> r.Detect.detectable) results);
      let m = build ~criterion grid [ view ] [ v2_open; r2_up ] in
      Alcotest.(check (list bool))
        (Printf.sprintf "fixed:%g campaign = Detect.analyze" eps)
        expected (Array.to_list m.Matrix.detect.(0)))
    [ (0.1, [ true; true ]); (0.3, [ false; true ]) ]

(* Whether a view is numerically dead is decided on the engine's own
   unit-source system, so the value the netlist declares for the probe
   source changes nothing. leapfrog5's cancelling C198 and C214, its
   live C0 and a divider whose 1e-5 response is exact give the same
   verdicts with the probe at 1, 1e3, 1e6 and 0: a rule scaled by the
   declared value would mask the divider at 1e6 and, at 0, mask
   nothing, so that C198's round-off decides a phase verdict. *)
let with_source source value netlist =
  Netlist.of_elements ~title:(Netlist.title netlist)
    (List.map
       (fun e ->
         if Circuit.Element.name e = source then Circuit.Element.with_value e value else e)
       (Netlist.elements netlist))

let test_dead_rule_ignores_amplitude () =
  let b = Option.get (Circuits.Registry.find "leapfrog5") in
  let source = b.Circuits.Benchmark.source and output = b.Circuits.Benchmark.output in
  let dft = Multiconfig.Transform.make ~source ~output b.Circuits.Benchmark.netlist in
  let lf5_grid =
    Grid.around ~points_per_decade:30 ~center_hz:b.Circuits.Benchmark.center_hz ()
  in
  let lf5_faults = Fault.catastrophic_faults b.Circuits.Benchmark.netlist in
  let lf5_probe = { Detect.source; output } in
  let divider =
    Netlist.empty ~title:"1e-5 divider" ()
    |> Netlist.vsource ~name:"V1" "in" "0" 1.0
    |> Netlist.resistor ~name:"R1" "in" "out" 1e6
    |> Netlist.resistor ~name:"R2" "out" "0" 10.0
  in
  let verdicts value =
    let lf5 =
      List.filter_map
        (fun config ->
          let label = Multiconfig.Configuration.label config in
          if List.mem label [ "C0"; "C198"; "C214" ] then
            Some
              {
                Matrix.label;
                netlist = with_source source value (Multiconfig.Transform.emulate dft config);
                probe = lf5_probe;
              }
          else None)
        (Multiconfig.Transform.test_configurations dft)
    in
    let rows m = Array.map (Array.map Bytes.to_string) m.Matrix.verdicts in
    Array.append
      (rows (build ~criterion:(Detect.Phase_fixed 0.1) lf5_grid lf5 lf5_faults))
      (rows
         (build ~criterion:(Detect.Fixed_tolerance 0.1)
            (Grid.around ~points_per_decade:2 ~center_hz:1000.0 ())
            [ { Matrix.label = "C0"; netlist = with_source "V1" value divider; probe } ]
            [ Fault.deviation ~element:"R2" 2.0 ]))
  in
  let unit = verdicts 1.0 in
  let all_u row = Array.for_all (String.for_all (( = ) 'u')) row in
  Alcotest.(check bool) "C198 and C214 all 'u'" true (all_u unit.(1) && all_u unit.(2));
  Alcotest.(check bool) "C0 and the divider detect" true
    ((not (all_u unit.(0))) && not (all_u unit.(3)));
  List.iter
    (fun value ->
      Alcotest.(check (array (array string)))
        (Printf.sprintf "probe declared at %g" value)
        unit (verdicts value))
    [ 1e3; 1e6; 0.0 ]

(* A response that is small but fixed accurately by its system is
   measured, however small: a 1e-11 divider's output is well above its
   own round-off bound, so no point is masked and a doubled R2 is
   detected on both scoring paths. *)
let test_small_exact_response_measured () =
  let netlist =
    Netlist.empty ~title:"1e-11 divider" ()
    |> Netlist.vsource ~name:"V1" "in" "0" 1.0
    |> Netlist.resistor ~name:"R1" "in" "out" 1e12
    |> Netlist.resistor ~name:"R2" "out" "0" 10.0
  in
  let grid = Grid.around ~points_per_decade:2 ~center_hz:1000.0 () in
  let criterion = Detect.Fixed_tolerance 0.1 in
  let fault = Fault.deviation ~element:"R2" 2.0 in
  let pv = Detect.prepare_view ~criterion ~faults:[ fault ] probe grid netlist in
  for k = 0 to Grid.n_points grid - 1 do
    if Detect.below_floor pv k then Alcotest.failf "grid point %d is masked" k
  done;
  Alcotest.(check bool) "Detect.analyze detects" true
    (analyze_fault ~criterion probe grid netlist fault).Detect.detectable;
  let m = build ~criterion grid [ { Matrix.label = "C0"; netlist; probe } ] [ fault ] in
  Alcotest.(check bool) "campaign detects" true m.Matrix.detect.(0).(0)

let suite =
  suite
  @ [ Alcotest.test_case "output cone: non-passive faults solve on the whole view" `Quick
        test_cone_non_passive_fault;
      Alcotest.test_case "numerically dead views: the probe's declared value plays no part"
        `Quick test_dead_rule_ignores_amplitude;
      Alcotest.test_case "a small but exact response is measured" `Quick
        test_small_exact_response_measured ]
