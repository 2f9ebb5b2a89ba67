(* Tests for the extension features: phase-based detection, criterion
   union, finite-bandwidth followers, test-frequency planning and
   Monte-Carlo tolerance analysis. *)

module Netlist = Circuit.Netlist
module Detect = Testability.Detect
module P = Mcdft_core.Pipeline
module O = Mcdft_core.Optimizer

let rc ~r ~c () =
  Netlist.empty ~title:"rc" ()
  |> Netlist.vsource ~name:"V1" "in" "0" 1.0
  |> Netlist.resistor ~name:"R1" "in" "out" r
  |> Netlist.capacitor ~name:"C1" "out" "0" c

let probe = { Detect.source = "V1"; output = "out" }
let grid = Testability.Grid.around ~points_per_decade:15 ~center_hz:159.0 ()

let analyze_fault ~criterion probe grid n fault =
  List.hd (Detect.analyze ~criterion probe grid n [ fault ])

(* --- phase criterion --- *)

let test_phase_deviation_values () =
  let c m a = Complex.{ re = m *. cos a; im = m *. sin a } in
  let dev =
    Detect.phase_deviation
      ~nominal:[| c 1.0 0.0; c 1.0 3.0; c 2.0 0.5 |]
      ~faulty:[| c 5.0 0.1; c 1.0 (-3.0); c 0.1 0.5 |]
  in
  Alcotest.(check (float 1e-9)) "plain" 0.1 dev.(0);
  (* 3 vs -3 rad wraps to 2pi - 6 *)
  Alcotest.(check (float 1e-9)) "wrapped" ((2.0 *. Float.pi) -. 6.0) dev.(1);
  Alcotest.(check (float 1e-9)) "magnitude change only" 0.0 dev.(2)

let test_phase_criterion_detects_pole_shift () =
  (* an RC pole shift moves phase near the corner even where the
     magnitude change stays under a loose epsilon *)
  let n = rc ~r:1000.0 ~c:1e-6 () in
  let fault = Fault.deviation ~element:"R1" 1.2 in
  let by_magnitude =
    analyze_fault ~criterion:(Detect.Fixed_tolerance 0.5) probe grid n fault
  in
  Alcotest.(check bool) "magnitude misses at eps=50%" false
    by_magnitude.Detect.detectable;
  let by_phase =
    analyze_fault ~criterion:(Detect.Phase_fixed 0.05) probe grid n fault
  in
  Alcotest.(check bool) "phase catches" true by_phase.Detect.detectable

let test_any_of_is_union () =
  let n = rc ~r:1000.0 ~c:1e-6 () in
  let fault = Fault.deviation ~element:"R1" 1.2 in
  let mag = analyze_fault ~criterion:(Detect.Fixed_tolerance 0.1) probe grid n fault in
  let ph = analyze_fault ~criterion:(Detect.Phase_fixed 0.05) probe grid n fault in
  let both =
    analyze_fault
      ~criterion:(Detect.Any_of [ Detect.Fixed_tolerance 0.1; Detect.Phase_fixed 0.05 ])
      probe grid n fault
  in
  let m_union =
    Util.Interval.Set.measure
      Util.Interval.Set.(
        of_intervals (to_intervals mag.Detect.regions @ to_intervals ph.Detect.regions))
  in
  Alcotest.(check (float 1e-9)) "union of regions" m_union
    (Util.Interval.Set.measure both.Detect.regions)

let test_phase_envelope_masks () =
  let n = rc ~r:1000.0 ~c:1e-6 () in
  let fault = Fault.deviation ~element:"R1" 1.04 in
  let r =
    analyze_fault
      ~criterion:(Detect.Phase_envelope { component_tol = 0.05; floor_rad = 0.01 })
      probe grid n fault
  in
  Alcotest.(check bool) "tolerance-sized fault masked in phase too" false
    r.Detect.detectable

(* --- finite-bandwidth followers --- *)

let test_follower_model_degrades_transparency () =
  let b = Circuits.Tow_thomas.make () in
  let dft = Multiconfig.Transform.make ~source:"Vin" ~output:"v2" b.Circuits.Benchmark.netlist in
  let transparent = Multiconfig.Configuration.make ~n_opamps:3 7 in
  let slow = Circuit.Element.Single_pole { dc_gain = 1e5; pole_hz = 10.0 } in
  let ideal_view = Multiconfig.Transform.emulate dft transparent in
  let slow_view = Multiconfig.Transform.emulate ~follower_model:slow dft transparent in
  let mag view f =
    Complex.norm
      (Mna.Ac.transfer ~source:"Vin" ~output:"v2" view ~omega:(2.0 *. Float.pi *. f))
  in
  (* far below GBW both are unity; approaching GBW the real buffers
     roll off (three in cascade) *)
  Alcotest.(check (float 1e-6)) "ideal stays unity" 1.0 (mag ideal_view 500_000.0);
  Alcotest.(check (float 1e-3)) "real buffer unity at low freq" 1.0 (mag slow_view 100.0);
  Alcotest.(check bool) "real buffers roll off near GBW" true
    (mag slow_view 500_000.0 < 0.9)

let test_follower_model_preserves_low_freq_matrix () =
  (* with a generous GBW the detectability analysis is unchanged in the
     audio band *)
  let b = Circuits.Tow_thomas.make () in
  let dft = Multiconfig.Transform.make ~source:"Vin" ~output:"v2" b.Circuits.Benchmark.netlist in
  let fast = Circuit.Element.Single_pole { dc_gain = 1e6; pole_hz = 100.0 } in
  let c2 = Multiconfig.Configuration.make ~n_opamps:3 2 in
  let w = 2.0 *. Float.pi *. 1000.0 in
  let ideal =
    Mna.Ac.transfer ~source:"Vin" ~output:"v2" (Multiconfig.Transform.emulate dft c2) ~omega:w
  in
  let real =
    Mna.Ac.transfer ~source:"Vin" ~output:"v2"
      (Multiconfig.Transform.emulate ~follower_model:fast dft c2)
      ~omega:w
  in
  Alcotest.(check (float 1e-3)) "same response in band" (Complex.norm ideal)
    (Complex.norm real)

(* --- test plan --- *)

let pipeline = lazy (P.run ~points_per_decade:15 (Circuits.Tow_thomas.make ()))

let test_plan_covers_everything () =
  let t = Lazy.force pipeline in
  let plan = Mcdft_core.Test_plan.build t in
  Alcotest.(check int) "all coverable faults covered"
    plan.Mcdft_core.Test_plan.total_coverable plan.Mcdft_core.Test_plan.covered;
  Alcotest.(check bool) "nonempty schedule" true
    (plan.Mcdft_core.Test_plan.measurements <> [])

let test_plan_is_small () =
  (* a handful of measurements should suffice for 8 faults in 2 configs *)
  let t = Lazy.force pipeline in
  let plan = Mcdft_core.Test_plan.build t in
  Alcotest.(check bool) "fewer measurements than faults" true
    (List.length plan.Mcdft_core.Test_plan.measurements
    <= List.length t.P.faults)

let test_plan_measurements_within_chosen_configs () =
  let t = Lazy.force pipeline in
  let r = P.optimize t in
  let plan = Mcdft_core.Test_plan.build t in
  List.iter
    (fun m ->
      Alcotest.(check bool) "config from choice A" true
        (List.mem m.Mcdft_core.Test_plan.config r.O.choice_a.O.configs))
    plan.Mcdft_core.Test_plan.measurements

let test_plan_witnesses_consistent () =
  let t = Lazy.force pipeline in
  let plan = Mcdft_core.Test_plan.build t in
  Alcotest.(check int) "one witness per covered fault"
    plan.Mcdft_core.Test_plan.covered
    (List.length plan.Mcdft_core.Test_plan.witnesses);
  let to_str = Mcdft_core.Test_plan.to_string plan in
  Alcotest.(check bool) "printable" true (String.length to_str > 0)

let test_plan_explicit_configs () =
  let t = Lazy.force pipeline in
  (* restricting to C0 alone covers only what C0 detects *)
  let plan = Mcdft_core.Test_plan.build ~configs:[ 0 ] t in
  let row0_coverage =
    Array.to_list t.P.matrix.Testability.Matrix.detect.(0)
    |> List.filter Fun.id |> List.length
  in
  Alcotest.(check int) "coverable = C0 row" row0_coverage
    plan.Mcdft_core.Test_plan.total_coverable

(* --- Monte Carlo --- *)

let test_montecarlo_deterministic () =
  let n = rc ~r:1000.0 ~c:1e-6 () in
  let a = Testability.Montecarlo.run ~seed:7 ~samples:50 ~component_tol:0.05 probe grid n in
  let b = Testability.Montecarlo.run ~seed:7 ~samples:50 ~component_tol:0.05 probe grid n in
  Alcotest.(check bool) "same seed, same stats" true
    (a.Testability.Montecarlo.per_sample_peak = b.Testability.Montecarlo.per_sample_peak)

let test_montecarlo_monotone_in_tolerance () =
  let n = rc ~r:1000.0 ~c:1e-6 () in
  let peak tol =
    let s = Testability.Montecarlo.run ~seed:3 ~samples:60 ~component_tol:tol probe grid n in
    Array.fold_left Float.max 0.0 s.Testability.Montecarlo.per_sample_peak
  in
  Alcotest.(check bool) "wider tolerance, wider deviation" true (peak 0.10 > peak 0.02)

let test_montecarlo_within_linear_envelope () =
  (* the linear worst-case envelope should dominate sampled good
     circuits up to second-order effects *)
  let n = rc ~r:1000.0 ~c:1e-6 () in
  let tol = 0.05 in
  let mc = Testability.Montecarlo.run ~seed:11 ~samples:100 ~component_tol:tol probe grid n in
  let nominal = Detect.nominal_response probe grid n in
  (* envelope = sum of single-component deviations at +tol *)
  let envelope = Array.make (Testability.Grid.n_points grid) 0.0 in
  List.iter
    (fun e ->
      let name = Circuit.Element.name e in
      let drifted = Fault.inject (Fault.deviation ~element:name (1.0 +. tol)) n in
      let resp = Detect.nominal_response probe grid drifted in
      let dev = Detect.response_deviation ~nominal ~faulty:resp in
      Array.iteri (fun i d -> envelope.(i) <- envelope.(i) +. d) dev)
    (Netlist.passives n);
  Array.iteri
    (fun i m ->
      if m > (envelope.(i) *. 1.1) +. 1e-6 then
        Alcotest.fail
          (Printf.sprintf "MC max %g exceeds envelope %g at point %d" m envelope.(i) i))
    mc.Testability.Montecarlo.max_dev

let test_false_alarm_rates () =
  let n = rc ~r:1000.0 ~c:1e-6 () in
  let mc = Testability.Montecarlo.run ~seed:5 ~samples:100 ~component_tol:0.05 probe grid n in
  let strict = Testability.Montecarlo.false_alarm_rate mc ~epsilon:0.001 in
  let loose = Testability.Montecarlo.false_alarm_rate mc ~epsilon:0.5 in
  (* R-up/C-down drifts can cancel in the RC product, so a few samples
     stay below even a tiny epsilon *)
  Alcotest.(check bool) "tiny epsilon rejects almost all" true (strict > 0.9);
  Alcotest.(check (float 0.0)) "huge epsilon accepts all" 0.0 loose;
  let mid = Testability.Montecarlo.false_alarm_rate mc ~epsilon:0.05 in
  Alcotest.(check bool) "monotone" true (mid >= loose && mid <= strict)

let suite =
  [
    Alcotest.test_case "phase deviation" `Quick test_phase_deviation_values;
    Alcotest.test_case "phase detects pole shift" `Quick test_phase_criterion_detects_pole_shift;
    Alcotest.test_case "any_of = union" `Quick test_any_of_is_union;
    Alcotest.test_case "phase envelope masks" `Quick test_phase_envelope_masks;
    Alcotest.test_case "follower bandwidth: transparency" `Quick test_follower_model_degrades_transparency;
    Alcotest.test_case "follower bandwidth: in band" `Quick test_follower_model_preserves_low_freq_matrix;
    Alcotest.test_case "test plan covers" `Quick test_plan_covers_everything;
    Alcotest.test_case "test plan small" `Quick test_plan_is_small;
    Alcotest.test_case "test plan configs" `Quick test_plan_measurements_within_chosen_configs;
    Alcotest.test_case "test plan witnesses" `Quick test_plan_witnesses_consistent;
    Alcotest.test_case "test plan explicit configs" `Quick test_plan_explicit_configs;
    Alcotest.test_case "montecarlo deterministic" `Quick test_montecarlo_deterministic;
    Alcotest.test_case "montecarlo monotone" `Quick test_montecarlo_monotone_in_tolerance;
    Alcotest.test_case "montecarlo vs envelope" `Quick test_montecarlo_within_linear_envelope;
    Alcotest.test_case "false alarm rates" `Quick test_false_alarm_rates;
  ]

(* --- minimal detectable deviation --- *)

let test_minimal_deviation_divider () =
  (* T = R2/(R1+R2) with R1 = R2: deviation of R1 by factor f gives
     relative output change (f-1)/(f+1); at eps = 10% the threshold
     factor is 11/9 *)
  let n =
    Netlist.empty ~title:"divider" ()
    |> Netlist.vsource ~name:"V1" "in" "0" 1.0
    |> Netlist.resistor ~name:"R1" "in" "out" 1000.0
    |> Netlist.resistor ~name:"R2" "out" "0" 1000.0
  in
  let g = Testability.Grid.make ~points_per_decade:4 ~f_lo:10.0 ~f_hi:1000.0 () in
  match
    Detect.minimal_detectable_deviation ~criterion:(Detect.Fixed_tolerance 0.1)
      { Detect.source = "V1"; output = "out" } g n ~element:"R1"
  with
  | None -> Alcotest.fail "expected detectable"
  | Some f -> Alcotest.(check (float 1e-3)) "11/9" (11.0 /. 9.0) f

let test_minimal_deviation_none () =
  (* an element that cannot affect the output at all *)
  let n =
    Netlist.empty ~title:"shielded" ()
    |> Netlist.vsource ~name:"V1" "in" "0" 1.0
    |> Netlist.resistor ~name:"R1" "in" "out" 1000.0
    |> Netlist.resistor ~name:"R2" "out" "0" 1000.0
    |> Netlist.resistor ~name:"R3" "in" "dead" 1000.0
    |> Netlist.resistor ~name:"R4" "dead" "0" 1000.0
  in
  let g = Testability.Grid.make ~points_per_decade:4 ~f_lo:10.0 ~f_hi:1000.0 () in
  Alcotest.(check bool) "R3 never detectable" true
    (Detect.minimal_detectable_deviation ~criterion:(Detect.Fixed_tolerance 0.1)
       { Detect.source = "V1"; output = "out" } g n ~element:"R3"
    = None)

let test_minimal_deviation_monotone_in_eps () =
  let b = Circuits.Tow_thomas.make () in
  let g = Testability.Grid.around ~points_per_decade:8 ~center_hz:1000.0 () in
  let p = { Detect.source = "Vin"; output = "v2" } in
  let at eps =
    Detect.minimal_detectable_deviation ~criterion:(Detect.Fixed_tolerance eps) p g
      b.Circuits.Benchmark.netlist ~element:"R4"
  in
  match (at 0.05, at 0.15) with
  | Some strict, Some loose ->
      Alcotest.(check bool) "looser eps needs bigger fault" true (loose > strict)
  | _ -> Alcotest.fail "expected both detectable"

(* --- diagnostic test plan --- *)

let test_diagnostic_plan_separates_pairs () =
  let t = Lazy.force pipeline in
  let plan = Mcdft_core.Test_plan.build_diagnostic t in
  Alcotest.(check int) "still covers everything"
    plan.Mcdft_core.Test_plan.total_coverable plan.Mcdft_core.Test_plan.covered;
  (* the schedule must separate every pair the full space separates:
     check via the diagnosis dictionary restricted to plan measurements *)
  let dict = Diagnosis.Dictionary.build t in
  let n_points = Array.length dict.Diagnosis.Dictionary.freqs_hz in
  let col_of m =
    let rec config_pos i = function
      | [] -> assert false
      | c :: rest ->
          if c = m.Mcdft_core.Test_plan.config then i else config_pos (i + 1) rest
    in
    let c = config_pos 0 dict.Diagnosis.Dictionary.configs in
    let k = ref 0 in
    Array.iteri
      (fun idx f ->
        if Float.abs (f -. m.Mcdft_core.Test_plan.freq_hz) < 1e-9 *. f then k := idx)
      dict.Diagnosis.Dictionary.freqs_hz;
    (c * n_points) + !k
  in
  let cols = List.map col_of plan.Mcdft_core.Test_plan.measurements in
  let restricted j = List.map (fun c -> dict.Diagnosis.Dictionary.signatures.(j).(c)) cols in
  let n_faults = Array.length dict.Diagnosis.Dictionary.faults in
  for j1 = 0 to n_faults - 1 do
    for j2 = j1 + 1 to n_faults - 1 do
      let full_separable =
        dict.Diagnosis.Dictionary.signatures.(j1) <> dict.Diagnosis.Dictionary.signatures.(j2)
      in
      if full_separable then
        Alcotest.(check bool)
          (Printf.sprintf "pair (%d,%d) separated by the schedule" j1 j2)
          true
          (restricted j1 <> restricted j2)
    done
  done

let test_diagnostic_plan_at_least_detection_size () =
  let t = Lazy.force pipeline in
  let detect_plan = Mcdft_core.Test_plan.build t in
  let all_configs =
    List.map Multiconfig.Configuration.index
      (Multiconfig.Transform.test_configurations t.P.dft)
  in
  let diag_plan = Mcdft_core.Test_plan.build_diagnostic ~configs:all_configs t in
  Alcotest.(check bool) "diagnosis needs at least as many measurements" true
    (List.length diag_plan.Mcdft_core.Test_plan.measurements
    >= List.length detect_plan.Mcdft_core.Test_plan.measurements)

(* --- the planner and the dictionary read the campaign --- *)

module TP = Mcdft_core.Test_plan
module Dict = Diagnosis.Dictionary
module IntSet = Cover.Clause.IntSet

(* Per-point verdicts decoded the old way: Detect.analyze on one
   netlist per configuration, each grid point read back out of the
   detectability regions. [bits.(c).(j).(k)]: fault j caught at grid
   point k of the c-th netlist. *)
let analyzed_bits (t : P.t) netlists =
  let freqs = Testability.Grid.freqs_hz t.P.grid in
  let probe =
    {
      Detect.source = t.P.benchmark.Circuits.Benchmark.source;
      output = t.P.benchmark.Circuits.Benchmark.output;
    }
  in
  Array.of_list
    (List.map
       (fun netlist ->
         Array.of_list
           (List.map
              (fun (r : Detect.result) ->
                let regions = Util.Interval.Set.to_intervals r.Detect.regions in
                Array.map
                  (fun f ->
                    List.exists
                      (fun (i : Util.Interval.t) -> i.lo <= log10 f && log10 f <= i.hi)
                      regions)
                  freqs)
              (Detect.analyze ~criterion:t.P.criterion probe t.P.grid netlist t.P.faults)))
       netlists)

(* The netlists the campaign scored, and the ones the planner and the
   dictionary used to re-emulate (ideal followers whatever the
   pipeline's follower model). *)
let matrix_netlists (t : P.t) configs =
  List.map (fun c -> t.P.matrix.Testability.Matrix.views.(c).Testability.Matrix.netlist) configs

let reemulated_netlists (t : P.t) configs =
  let n_opamps = Multiconfig.Transform.n_opamps t.P.dft in
  List.map
    (fun c ->
      Multiconfig.Transform.emulate t.P.dft (Multiconfig.Configuration.make ~n_opamps c))
    configs

let all_configs (t : P.t) =
  List.map Multiconfig.Configuration.index (Multiconfig.Transform.test_configurations t.P.dft)

let signatures_of bits =
  Array.init
    (Array.length bits.(0))
    (fun j -> Array.concat (Array.to_list (Array.map (fun row -> row.(j)) bits)))

let freq_index (t : P.t) f =
  let freqs = Testability.Grid.freqs_hz t.P.grid in
  let rec go k = if freqs.(k) = f then k else go (k + 1) in
  go 0

(* The planner as it was before it read the campaign's verdict rows,
   over per-point bits from {!analyzed_bits}. *)
let reference_plan ~distinguish ~configs (t : P.t) bits =
  let freqs = Testability.Grid.freqs_hz t.P.grid in
  let n_points = Array.length freqs in
  let faults = Array.of_list t.P.faults in
  let n_faults = Array.length faults in
  let where p =
    let s = ref IntSet.empty in
    Array.iteri
      (fun c _ ->
        for k = 0 to n_points - 1 do
          if p c k then s := IntSet.add ((c * n_points) + k) !s
        done)
      bits;
    !s
  in
  let clauses = ref [] and coverable = ref 0 in
  for j = 0 to n_faults - 1 do
    let s = where (fun c k -> bits.(c).(j).(k)) in
    if not (IntSet.is_empty s) then begin
      incr coverable;
      clauses := s :: !clauses
    end
  done;
  if distinguish then
    for j1 = 0 to n_faults - 1 do
      for j2 = j1 + 1 to n_faults - 1 do
        let s = where (fun c k -> bits.(c).(j1).(k) <> bits.(c).(j2).(k)) in
        if not (IntSet.is_empty s) then clauses := s :: !clauses
      done
    done;
  let problem =
    Cover.Clause.of_sets ~n_candidates:(List.length configs * n_points) (List.rev !clauses)
  in
  let chosen = Cover.Solver.cover_exn (Cover.Solver.exact problem) in
  let decode m =
    { TP.config = List.nth configs (m / n_points); freq_hz = freqs.(m mod n_points) }
  in
  let measurements =
    List.sort
      (fun a b ->
        match Int.compare a.TP.config b.TP.config with
        | 0 -> Float.compare a.TP.freq_hz b.TP.freq_hz
        | cmp -> cmp)
      (List.map decode (IntSet.elements chosen))
  in
  let catches j (m : TP.measurement) =
    List.exists2
      (fun c row -> c = m.TP.config && row.(j).(freq_index t m.TP.freq_hz))
      configs (Array.to_list bits)
  in
  let witnesses =
    List.filter_map
      (fun j -> Option.map (fun m -> (faults.(j), m)) (List.find_opt (catches j) measurements))
      (List.init n_faults Fun.id)
  in
  {
    TP.measurements;
    covered = List.length witnesses;
    total_coverable = !coverable;
    witnesses;
  }

(* With finite-GBW followers the re-emulated ideal-follower views
   differ from the campaign's; the dictionary and the planner must
   describe the views the matrix was built from. *)
let test_finite_gbw_reads_campaign_views () =
  let t =
    P.run ~points_per_decade:10
      ~follower_model:(Circuit.Element.Single_pole { dc_gain = 1e5; pole_hz = 10.0 })
      (Circuits.Khn.make ())
  in
  let configs = all_configs t in
  let bits = analyzed_bits t (matrix_netlists t configs) in
  Alcotest.(check bool) "the ideal-follower views score differently" true
    (bits <> analyzed_bits t (reemulated_netlists t configs));
  let dict = Dict.build t in
  Alcotest.(check bool) "dictionary signatures = per-point verdicts of the matrix views" true
    (dict.Dict.signatures = signatures_of bits);
  let plan = TP.build t in
  let faults = Array.of_list t.P.faults in
  Alcotest.(check bool) "some witnesses" true (plan.TP.witnesses <> []);
  List.iter
    (fun ((f : Fault.t), (m : TP.measurement)) ->
      let j =
        let rec find j = if faults.(j).Fault.id = f.Fault.id then j else find (j + 1) in
        find 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s caught at C%d @ %.1f Hz" f.Fault.id m.TP.config m.TP.freq_hz)
        true
        bits.(m.TP.config).(j).(freq_index t m.TP.freq_hz))
    plan.TP.witnesses

let check_resimulating_reference (t : P.t) =
  let name = t.P.benchmark.Circuits.Benchmark.name ^ ": " in
  let all = all_configs t in
  let dict = Dict.build t in
  Alcotest.(check bool) (name ^ "dictionary = re-simulated reference") true
    (dict.Dict.signatures = signatures_of (analyzed_bits t (reemulated_netlists t all)));
  let choice = (P.optimize t).O.choice_a.O.configs in
  let bits = analyzed_bits t (reemulated_netlists t choice) in
  Alcotest.(check bool) (name ^ "detection plan = re-simulated reference") true
    (TP.build t = reference_plan ~distinguish:false ~configs:choice t bits);
  Alcotest.(check bool) (name ^ "diagnostic plan = re-simulated reference") true
    (TP.build_diagnostic ~configs:choice t
    = reference_plan ~distinguish:true ~configs:choice t bits)

(* Under ideal followers the verdict rows equal the re-emulated
   reference point for point, so the dictionary and both schedules
   are the ones the re-simulating implementation produced: on
   tt-notch, and on a bigladder whose 7 views pruning merges into 2
   classes, so most rows read are a representative's shared rows. *)
let test_equals_resimulating_reference () =
  let bigladder =
    let netlist, output = Conformance.Gen.bigladder ~stages:60 (Random.State.make [| 7 |]) in
    let b =
      {
        Circuits.Benchmark.name = "bigladder-60";
        description = "pruned campaign";
        netlist;
        source = "V1";
        output;
        center_hz = 10_000.0;
      }
    in
    let faults = List.filteri (fun i _ -> i mod 4 = 0) (Fault.deviation_faults netlist) in
    let t = P.run ~points_per_decade:3 ~faults b in
    Alcotest.(check int) "bigladder-60: pruned views" 5 t.P.pruned_configs;
    t
  in
  List.iter check_resimulating_reference
    [ P.run ~points_per_decade:10 (Circuits.Notch.make ()); bigladder ]

let suite =
  suite
  @ [
      Alcotest.test_case "minimal deviation divider" `Quick test_minimal_deviation_divider;
      Alcotest.test_case "minimal deviation none" `Quick test_minimal_deviation_none;
      Alcotest.test_case "minimal deviation monotone" `Quick test_minimal_deviation_monotone_in_eps;
      Alcotest.test_case "diagnostic plan separates" `Quick test_diagnostic_plan_separates_pairs;
      Alcotest.test_case "diagnostic plan size" `Quick test_diagnostic_plan_at_least_detection_size;
      Alcotest.test_case "finite-GBW plan and dictionary read the campaign views" `Quick
        test_finite_gbw_reads_campaign_views;
      Alcotest.test_case "plan and dictionary = re-simulating reference" `Quick
        test_equals_resimulating_reference;
    ]

(* --- test time --- *)

let test_settle_time_reflects_poles () =
  let t = Lazy.force pipeline in
  (* C0 of the 1 kHz biquad: dominant pole ~ -pi*1000, so settling
     within milliseconds. C0's schedule starts in C0 (no switch), pays
     the settle once and then 5 stimulus periods per measurement. *)
  let dft = t.P.dft in
  let c0 =
    Multiconfig.Transform.emulate dft
      (Multiconfig.Configuration.make ~n_opamps:(Multiconfig.Transform.n_opamps dft) 0)
  in
  let slowest =
    Array.fold_left
      (fun acc p -> Float.min acc (-.p.Complex.re))
      infinity
      (Mna.Symbolic.poles ~source:dft.Multiconfig.Transform.source
         ~output:dft.Multiconfig.Transform.output c0)
  in
  let settle = 7.0 /. slowest in
  Alcotest.(check bool) (Printf.sprintf "settle %g s plausible" settle) true
    (settle > 1e-4 && settle < 0.1);
  let plan = TP.build ~configs:[ 0 ] t in
  let expected =
    List.fold_left
      (fun acc m -> acc +. (5.0 /. m.TP.freq_hz))
      settle plan.TP.measurements
  in
  match Mcdft_core.Test_time.compare_sets t [ [ 0 ] ] with
  | [ (_, s) ] ->
      Alcotest.(check bool)
        (Printf.sprintf "C0 schedule %g s = settle + periods %g s" s expected)
        true
        (Float.abs (s -. expected) <= 1e-12 *. expected)
  | _ -> Alcotest.fail "one set in, one estimate out"

let test_estimate_positive () =
  let t = Lazy.force pipeline in
  let r = P.optimize t in
  let sets = List.map Cover.Clause.IntSet.elements r.O.min_config_sets in
  List.iter
    (fun (_, total) ->
      Alcotest.(check bool) (Printf.sprintf "%g s positive and finite" total) true
        (total > 0.0 && Float.is_finite total))
    (Mcdft_core.Test_time.compare_sets t sets)

let test_compare_sets_ranks () =
  let t = Lazy.force pipeline in
  let r = P.optimize t in
  let sets = List.map Cover.Clause.IntSet.elements r.O.min_config_sets in
  let ranked = Mcdft_core.Test_time.compare_sets t sets in
  Alcotest.(check int) "all sets ranked" (List.length sets) (List.length ranked);
  (match ranked with
  | (_, t1) :: rest ->
      List.iter (fun (_, t2) -> Alcotest.(check bool) "sorted" true (t1 <= t2)) rest
  | [] -> Alcotest.fail "no sets")

let suite =
  suite
  @ [
      Alcotest.test_case "settle time" `Quick test_settle_time_reflects_poles;
      Alcotest.test_case "estimate positive" `Quick test_estimate_positive;
      Alcotest.test_case "compare sets" `Quick test_compare_sets_ranks;
    ]

(* --- embedded block access --- *)

let test_block_access_reports () =
  let t = Lazy.force pipeline in
  let reports = Mcdft_core.Block_access.per_opamp t in
  Alcotest.(check int) "one per opamp" 3 (List.length reports);
  List.iter
    (fun (r : Mcdft_core.Block_access.report) ->
      (* the access configuration of OPk is all-follower except k *)
      Alcotest.(check (list int)) "followers are the others"
        (List.filter (fun i -> i <> r.Mcdft_core.Block_access.but) [ 0; 1; 2 ])
        (List.filter
           (Multiconfig.Configuration.follower r.Mcdft_core.Block_access.access)
           [ 0; 1; 2 ]);
      Alcotest.(check bool) "coverage bounds" true
        (r.Mcdft_core.Block_access.coverage_access >= 0.0
        && r.Mcdft_core.Block_access.coverage_access <= 1.0))
    reports

let test_block_access_beats_in_situ () =
  (* testing OP2's integrator through its access configuration must
     cover its own components at least as well as C0 does *)
  let t = Lazy.force pipeline in
  let reports = Mcdft_core.Block_access.per_opamp t in
  let r2 =
    List.find (fun r -> r.Mcdft_core.Block_access.but = 1) reports
  in
  Alcotest.(check bool) "scope non-empty" true
    (r2.Mcdft_core.Block_access.faults_in_scope <> []);
  Alcotest.(check bool)
    (Printf.sprintf "access %.2f >= in-situ %.2f"
       r2.Mcdft_core.Block_access.coverage_access
       r2.Mcdft_core.Block_access.coverage_functional)
    true
    (r2.Mcdft_core.Block_access.coverage_access
    >= r2.Mcdft_core.Block_access.coverage_functional);
  Alcotest.(check (float 1e-9)) "full coverage of the block" 1.0
    r2.Mcdft_core.Block_access.coverage_access

let suite =
  suite
  @ [
      Alcotest.test_case "block access reports" `Quick test_block_access_reports;
      Alcotest.test_case "block access beats in-situ" `Quick test_block_access_beats_in_situ;
    ]
