(* Properties of the campaign driver (Mcdft_core.Adaptive) and the
   tolerance-space coverage estimator (Montecarlo.coverage_run).

   The campaign decides every grid point of every (view × fault) row
   with a static anchor or a solve, so its matrices must equal the
   independent per-view Detect.analyze reference bit for bit, on every
   criterion family, including the leapfrog5 cell a coarse-to-fine
   refinement once got wrong. *)

module A = Mcdft_core.Adaptive
module P = Mcdft_core.Pipeline

(* ---- end-to-end: campaign = the per-view Detect.analyze reference ---- *)

let check_against_analyze ~what ~criterion grid faults (m : Testability.Matrix.t) =
  let reference =
    Array.map
      (fun (v : Testability.Matrix.view) ->
        Array.of_list
          (Testability.Detect.analyze ~criterion v.Testability.Matrix.probe grid
             v.Testability.Matrix.netlist faults))
      m.Testability.Matrix.views
  in
  Alcotest.(check bool)
    (what ^ ": detect = Detect.analyze")
    true
    (m.Testability.Matrix.detect
    = Array.map (Array.map (fun r -> r.Testability.Detect.detectable)) reference);
  Alcotest.(check bool)
    (what ^ ": omega = Detect.analyze")
    true
    (m.Testability.Matrix.omega
    = Array.map (Array.map (fun r -> r.Testability.Detect.omega_det)) reference)

let check_identical ~what criterion =
  let b = Circuits.Tow_thomas.make () in
  let t = P.run ~criterion ~points_per_decade:6 ~jobs:1 b in
  check_against_analyze ~what ~criterion t.P.grid t.P.faults t.P.matrix;
  match t.P.adaptive with
  | None -> Alcotest.fail (what ^ ": campaign carries no stats")
  | Some s ->
      Alcotest.(check int)
        (what ^ ": points = representative rows x grid points")
        (t.P.equivalence_groups * List.length t.P.faults
        * Testability.Grid.n_points t.P.grid)
        s.A.points;
      Alcotest.(check bool) (what ^ ": 0 < solved <= points") true
        (0 < s.A.solved && s.A.solved <= s.A.points)

let test_pipeline_identity_envelope () =
  check_identical ~what:"envelope" P.default_criterion

let test_pipeline_identity_fixed () =
  check_identical ~what:"fixed" (Testability.Detect.Fixed_tolerance 0.10)

(* the remaining criterion constructors: with envelope and fixed above,
   campaign = Detect.analyze is pinned for every one of them *)
let test_pipeline_identity_other_criteria () =
  List.iter
    (fun (what, criterion) -> check_identical ~what criterion)
    Testability.Detect.
      [
        ("phase", Phase_fixed 0.1);
        ("phase-envelope", Phase_envelope { component_tol = 0.04; floor_rad = 0.05 });
        ("any-of", Any_of [ Fixed_tolerance 0.1; Phase_fixed 0.1 ]);
      ]

(* leapfrog5's C198 view cancels exactly: its source reaches the
   output structurally, but the nominal response is round-off (peak
   1.8e-12 dense, 1.7e-13 sparse, against a 1 V source). Read
   numerically, that residue once decided verdicts — R5a-short under
   phase:0.1 with open/short faults at ppd 30 read detectable at one
   grid point, and dense and sparse solvers disagreed at 10–40 Hz. The
   view is numerically dead: its output sits within its own round-off
   bound at every point (Fastsim.output_cancels), although its peak is
   above the absolute measurement floor, so every point is masked and
   every row is all 'u' on the campaign path and in the per-view
   Detect.analyze reference alike. *)
let test_leapfrog_c198_numerically_dead () =
  let b = Option.get (Circuits.Registry.find "leapfrog5") in
  let netlist = b.Circuits.Benchmark.netlist in
  let dft =
    Multiconfig.Transform.make ~source:b.Circuits.Benchmark.source
      ~output:b.Circuits.Benchmark.output netlist
  in
  let config =
    List.find
      (fun c -> Multiconfig.Configuration.label c = "C198")
      (Multiconfig.Transform.test_configurations dft)
  in
  let probe =
    {
      Testability.Detect.source = b.Circuits.Benchmark.source;
      output = b.Circuits.Benchmark.output;
    }
  in
  let view =
    {
      Testability.Matrix.label = "C198";
      netlist = Multiconfig.Transform.emulate dft config;
      probe;
    }
  in
  let grid =
    Testability.Grid.around ~points_per_decade:30 ~center_hz:b.Circuits.Benchmark.center_hz ()
  in
  let criterion = Testability.Detect.Phase_fixed 0.1 in
  let faults = Fault.catastrophic_faults netlist in
  let peak =
    Array.fold_left
      (fun a z -> Float.max a (Complex.norm z))
      0.0
      (Testability.Detect.nominal_response probe grid view.Testability.Matrix.netlist)
  in
  Alcotest.(check bool) "nominal peak above the absolute floor" true (peak > 1e-13);
  Alcotest.(check bool) "the output cancels" true
    (Testability.Fastsim.output_cancels
       (Testability.Fastsim.create ~source:probe.Testability.Detect.source
          ~output:probe.Testability.Detect.output
          ~freqs_hz:(Testability.Grid.freqs_hz grid) view.Testability.Matrix.netlist));
  let pv = Testability.Detect.prepare_view ~criterion probe grid view.Testability.Matrix.netlist in
  Alcotest.(check bool) "not structurally dead" false (Testability.Detect.view_dead pv);
  for k = 0 to Testability.Grid.n_points grid - 1 do
    if not (Testability.Detect.below_floor pv k) then
      Alcotest.failf "grid point %d is above the measurement floor" k
  done;
  let m, _ = A.build ~criterion ~jobs:1 grid [ view ] faults in
  check_against_analyze ~what:"C198 phase:0.1" ~criterion grid faults m;
  Array.iteri
    (fun j row ->
      if Bytes.exists (fun c -> c <> 'u') row then
        Alcotest.failf "C198 x %s: a verdict other than 'u'"
          (List.nth faults j).Fault.id)
    m.Testability.Matrix.verdicts.(0)

(* ---- streaming campaign on recycled storage ---- *)

(* leapfrog5's 255 test-configuration views at ppd 3 around its centre,
   with the probe and the +20 % deviation faults. *)
let leapfrog_ppd3 () =
  let b = Option.get (Circuits.Registry.find "leapfrog5") in
  let netlist = b.Circuits.Benchmark.netlist in
  let dft =
    Multiconfig.Transform.make ~source:b.Circuits.Benchmark.source
      ~output:b.Circuits.Benchmark.output netlist
  in
  let grid =
    Testability.Grid.around ~points_per_decade:3 ~center_hz:b.Circuits.Benchmark.center_hz ()
  in
  let probe =
    {
      Testability.Detect.source = b.Circuits.Benchmark.source;
      output = b.Circuits.Benchmark.output;
    }
  in
  let views =
    List.map
      (fun config ->
        {
          Testability.Matrix.label = Multiconfig.Configuration.label config;
          netlist = Multiconfig.Transform.emulate dft config;
          probe;
        })
      (Multiconfig.Transform.test_configurations dft)
  in
  (probe, grid, views, Fault.deviation_faults netlist)

(* leapfrog5 at ppd 3 under the default envelope criterion, every view
   simulated ([~prune:false]): each view
   task builds its engine on a workspace of the campaign's pool for the
   view's dimension, so the workspace allocations stay within (distinct
   view dimensions) × jobs however many views stream through. The 64
   dead views build nothing, and the matrices are the same at jobs 1
   and 2 and equal the per-view Detect.analyze reference, which builds
   every engine on storage of its own. The campaigns run one
   after another on the calling domain, and each starts from nothing:
   a campaign's storage does not outlive it. *)
let test_streaming_campaign_bounded () =
  let probe, grid, views, faults = leapfrog_ppd3 () in
  let criterion = P.default_criterion in
  let dims =
    List.sort_uniq compare
      (List.map
         (fun v -> Mna.Index.size (Mna.Index.build v.Testability.Matrix.netlist))
         views)
  in
  let campaign jobs =
    Obs.Metrics.reset ();
    Obs.Metrics.set_enabled true;
    Fun.protect
      ~finally:(fun () ->
        Obs.Metrics.set_enabled false;
        Obs.Metrics.reset ())
      (fun () ->
        let m, _ = A.build ~criterion ~jobs ~prune:false grid views faults in
        let snap = Obs.Metrics.snapshot () in
        let c = Obs.Metrics.counter snap in
        (m, c "fastsim.workspace_allocs", c "campaign.dead_views"))
  in
  let first, first_allocs, _ = campaign 1 in
  List.iter
    (fun jobs ->
      let m, allocs, dead = campaign jobs in
      let label = Printf.sprintf "jobs %d" jobs in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d workspace allocations <= %d dimensions x jobs" label allocs
           (List.length dims))
        true
        (allocs >= 1 && allocs <= List.length dims * jobs);
      Alcotest.(check int) (label ^ ": dead views") 64 dead;
      Alcotest.(check bool) (label ^ ": detect = first run") true
        (m.Testability.Matrix.detect = first.Testability.Matrix.detect);
      Alcotest.(check bool) (label ^ ": omega = first run") true
        (m.Testability.Matrix.omega = first.Testability.Matrix.omega))
    [ 1; 2 ];
  (* a tow-thomas campaign in between, on views of other dimensions *)
  let tt = Circuits.Tow_thomas.make () in
  ignore (P.run ~points_per_decade:3 ~jobs:1 tt);
  let _, again, _ = campaign 1 in
  Alcotest.(check int) "a later campaign reuses no storage of an earlier one" first_allocs
    again;
  List.iteri
    (fun i (v : Testability.Matrix.view) ->
      List.iteri
        (fun j (r : Testability.Detect.result) ->
          if
            r.Testability.Detect.detectable <> first.Testability.Matrix.detect.(i).(j)
            || r.Testability.Detect.omega_det <> first.Testability.Matrix.omega.(i).(j)
          then
            Alcotest.failf "%s / %s: campaign differs from Detect.analyze"
              v.Testability.Matrix.label r.Testability.Detect.fault.Fault.id)
        (Testability.Detect.analyze ~criterion probe grid v.Testability.Matrix.netlist faults))
    views

(* Cone classes are exact: on leapfrog5 (255 views, 64 of them dead)
   the grouped campaign equals the one that simulates every view, bit
   for bit, in every record it keeps, and it simulates fewer rows. *)
let test_grouped_equals_unpruned () =
  let _, grid, views, faults = leapfrog_ppd3 () in
  let criterion = P.default_criterion in
  let grouped, gs = A.build ~criterion ~jobs:1 grid views faults in
  let every, es = A.build ~criterion ~jobs:1 ~prune:false grid views faults in
  let bits a b =
    Array.length a = Array.length b
    && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b
  in
  let rows eq a b = Array.length a = Array.length b && Array.for_all2 eq a b in
  let module M = Testability.Matrix in
  Alcotest.(check bool) "detect" true (grouped.M.detect = every.M.detect);
  Alcotest.(check bool) "omega" true (rows bits grouped.M.omega every.M.omega);
  Alcotest.(check bool) "verdicts" true
    (rows (rows Bytes.equal) grouped.M.verdicts every.M.verdicts);
  Alcotest.(check bool) "deviations" true
    (rows (rows bits) grouped.M.deviations every.M.deviations);
  Alcotest.(check bool) "nominal" true (rows bits grouped.M.nominal every.M.nominal);
  Alcotest.(check int) "one class per view unpruned" (List.length views)
    (List.length es.A.classes);
  Alcotest.(check bool) "fewer classes than views" true
    (List.length gs.A.classes < List.length views);
  Alcotest.(check bool) "classes partition the views" true
    (List.sort compare (List.concat gs.A.classes) = List.init (List.length views) Fun.id);
  Alcotest.(check int) "points = classes x faults x grid points"
    (List.length gs.A.classes * List.length faults * Testability.Grid.n_points grid)
    gs.A.points

(* ---- tolerance-space coverage sampling ---- *)

let coverage ?(samples = 64) ~jobs () =
  let b = Circuits.Tow_thomas.make () in
  let grid =
    Testability.Grid.around ~points_per_decade:4
      ~center_hz:b.Circuits.Benchmark.center_hz ()
  in
  let probe =
    {
      Testability.Detect.source = b.Circuits.Benchmark.source;
      output = b.Circuits.Benchmark.output;
    }
  in
  Testability.Montecarlo.coverage_run ~samples ~jobs ~component_tol:0.04
    ~epsilon:0.05 probe grid b.Circuits.Benchmark.netlist

let test_coverage_run_sound () =
  let c = coverage ~jobs:1 () in
  let module M = Testability.Montecarlo in
  Alcotest.(check int) "every draw lands in a stratum" c.M.samples
    (Array.fold_left ( + ) 0 c.M.stratum_samples);
  Array.iter
    (fun a ->
      Alcotest.(check bool) "acceptance is a probability" true
        (a >= 0.0 && a <= 1.0))
    c.M.stratum_accept;
  Alcotest.(check bool) "boundary radius clamped" true
    (c.M.boundary_radius >= 1.0 /. float_of_int c.M.strata
    && c.M.boundary_radius <= 1.0);
  Alcotest.(check bool) "averages are probabilities" true
    (c.M.worst_case >= 0.0 && c.M.worst_case <= 1.0
    && c.M.average_case >= 0.0 && c.M.average_case <= 1.0)

let test_coverage_run_jobs_invariant () =
  Alcotest.(check bool) "coverage stats independent of the worker count" true
    (coverage ~jobs:1 () = coverage ~jobs:4 ())

let test_coverage_run_validation () =
  let check_invalid what f =
    match f () with
    | _ -> Alcotest.fail (what ^ ": expected Invalid_argument")
    | exception Invalid_argument _ -> ()
  in
  let b = Circuits.Tow_thomas.make () in
  let grid =
    Testability.Grid.around ~points_per_decade:2
      ~center_hz:b.Circuits.Benchmark.center_hz ()
  in
  let probe =
    {
      Testability.Detect.source = b.Circuits.Benchmark.source;
      output = b.Circuits.Benchmark.output;
    }
  in
  let run ?samples ?strata ~epsilon () =
    Testability.Montecarlo.coverage_run ?samples ?strata ~component_tol:0.04
      ~epsilon probe grid b.Circuits.Benchmark.netlist
  in
  check_invalid "epsilon 0" (fun () -> run ~epsilon:0.0 ());
  check_invalid "strata 0" (fun () -> run ~strata:0 ~epsilon:0.05 ());
  check_invalid "samples < 2*strata" (fun () ->
      run ~samples:10 ~strata:8 ~epsilon:0.05 ())

let suite =
  [
    Alcotest.test_case "campaign = Detect.analyze (envelope)" `Quick
      test_pipeline_identity_envelope;
    Alcotest.test_case "campaign = Detect.analyze (fixed)" `Quick
      test_pipeline_identity_fixed;
    Alcotest.test_case "campaign = Detect.analyze (phase, phase-envelope, any-of)"
      `Quick test_pipeline_identity_other_criteria;
    Alcotest.test_case "leapfrog5 C198 is numerically dead" `Quick
      test_leapfrog_c198_numerically_dead;
    Alcotest.test_case "grouped campaign = every view simulated (leapfrog5)" `Quick
      test_grouped_equals_unpruned;
    Alcotest.test_case "streaming campaign: bounded workspaces, dead views free" `Quick
      test_streaming_campaign_bounded;
    Alcotest.test_case "coverage_run accounting is sound" `Quick
      test_coverage_run_sound;
    Alcotest.test_case "coverage_run is jobs-invariant" `Quick
      test_coverage_run_jobs_invariant;
    Alcotest.test_case "coverage_run validates its arguments" `Quick
      test_coverage_run_validation;
  ]
