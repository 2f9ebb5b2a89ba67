module J = Report.Json
module IntSet = Cover.Clause.IntSet

let config_set s = J.List (List.map J.int (IntSet.elements s))

let criterion_to_json (c : Testability.Detect.criterion) =
  let rec go = function
    | Testability.Detect.Fixed_tolerance e ->
        J.Object [ ("kind", J.String "fixed"); ("epsilon", J.Number e) ]
    | Testability.Detect.Process_envelope { component_tol; floor } ->
        J.Object
          [
            ("kind", J.String "envelope");
            ("component_tol", J.Number component_tol);
            ("floor", J.Number floor);
          ]
    | Testability.Detect.Phase_fixed r ->
        J.Object [ ("kind", J.String "phase"); ("radians", J.Number r) ]
    | Testability.Detect.Phase_envelope { component_tol; floor_rad } ->
        J.Object
          [
            ("kind", J.String "phase-envelope");
            ("component_tol", J.Number component_tol);
            ("floor_rad", J.Number floor_rad);
          ]
    | Testability.Detect.Any_of l -> J.List (List.map go l)
  in
  go c

let detection_stats_to_json (d : Optimizer.detection_stats) =
  J.Object
    [
      ("worst", J.int d.Optimizer.worst);
      ("average", J.Number d.Optimizer.average);
      ("per_fault", J.List (Array.to_list (Array.map J.int d.Optimizer.per_fault)));
    ]

let report_to_json ~faults (r : Optimizer.report) =
  J.Object
    [
      ("n_opamps", J.int r.Optimizer.input.Optimizer.n_opamps);
      ("faults", J.List (List.map (fun f -> J.String f.Fault.id) faults));
      ("max_coverage", J.Number r.Optimizer.max_coverage);
      ("functional_coverage", J.Number r.Optimizer.functional_coverage);
      ("functional_avg_omega", J.Number r.Optimizer.functional_avg_omega);
      ("brute_force_avg_omega", J.Number r.Optimizer.brute_force_avg_omega);
      ("uncoverable_faults", J.List (List.map J.int r.Optimizer.uncoverable));
      ("n_detect", J.int r.Optimizer.n_detect);
      ( "short_faults",
        J.List
          (List.map
             (fun (fault, available) ->
               J.Object [ ("fault", J.int fault); ("available", J.int available) ])
             r.Optimizer.short_faults) );
      ("detection_configs", detection_stats_to_json r.Optimizer.detection_a);
      ("detection_opamps", detection_stats_to_json r.Optimizer.detection_b);
      ("essential_configs", J.List (List.map J.int r.Optimizer.essential));
      ("minimal_config_sets", J.List (List.map config_set r.Optimizer.min_config_sets));
      ( "choice_configs",
        J.Object
          [
            ( "configs",
              J.List (List.map J.int r.Optimizer.choice_a.Optimizer.configs) );
            ("avg_omega", J.Number r.Optimizer.choice_a.Optimizer.avg_omega);
          ] );
      ( "choice_opamps",
        J.Object
          [
            ("opamps", J.List (List.map J.int r.Optimizer.choice_b.Optimizer.opamps));
            ( "reachable_configs",
              J.List (List.map J.int r.Optimizer.choice_b.Optimizer.reachable_configs) );
            ( "avg_omega",
              J.Number r.Optimizer.choice_b.Optimizer.avg_omega_reachable );
          ] );
      ( "detect_matrix",
        J.List
          (Array.to_list
             (Array.map
                (fun row -> J.List (Array.to_list (Array.map (fun b -> J.Bool b) row)))
                r.Optimizer.input.Optimizer.detect)) );
      ( "omega_matrix",
        J.List
          (Array.to_list
             (Array.map
                (fun row -> J.List (Array.to_list (Array.map (fun w -> J.Number w) row)))
                r.Optimizer.input.Optimizer.omega)) );
    ]

let histogram_to_json (h : Obs.Metrics.histogram_stats) =
  let finite_or_null v = if Float.is_finite v then J.Number v else J.Null in
  J.Object
    [
      ("count", J.int h.Obs.Metrics.count);
      ("sum", J.Number h.Obs.Metrics.sum);
      ("min", finite_or_null h.Obs.Metrics.min);
      ("max", finite_or_null h.Obs.Metrics.max);
      ( "buckets",
        J.List
          (List.map
             (fun (ub, n) ->
               J.Object
                 [
                   ("le", if Float.is_finite ub then J.Number ub else J.String "inf");
                   ("count", J.int n);
                 ])
             h.Obs.Metrics.buckets) );
    ]

let metrics_to_json (s : Obs.Metrics.snapshot) =
  J.Object
    [
      ( "counters",
        J.Object (List.map (fun (k, v) -> (k, J.int v)) s.Obs.Metrics.counters) );
      ( "histograms",
        J.Object
          (List.map (fun (k, h) -> (k, histogram_to_json h)) s.Obs.Metrics.histograms)
      );
    ]

let coverage_to_json (c : Testability.Montecarlo.coverage) =
  J.Object
    [
      ("samples", J.int c.Testability.Montecarlo.samples);
      ("strata", J.int c.Testability.Montecarlo.strata);
      ("component_tol", J.Number c.Testability.Montecarlo.component_tol);
      ("epsilon", J.Number c.Testability.Montecarlo.epsilon);
      ("boundary_radius", J.Number c.Testability.Montecarlo.boundary_radius);
      ( "stratum_samples",
        J.List
          (Array.to_list
             (Array.map J.int c.Testability.Montecarlo.stratum_samples)) );
      ( "stratum_accept",
        J.List
          (Array.to_list
             (Array.map (fun a -> J.Number a) c.Testability.Montecarlo.stratum_accept))
      );
      ("worst_case", J.Number c.Testability.Montecarlo.worst_case);
      ("average_case", J.Number c.Testability.Montecarlo.average_case);
    ]

let pipeline_to_json ?metrics ?coverage (t : Pipeline.t) r =
  let b = t.Pipeline.benchmark in
  J.Object
    ([
       ("circuit", J.String b.Circuits.Benchmark.name);
       ("description", J.String b.Circuits.Benchmark.description);
       ("source", J.String b.Circuits.Benchmark.source);
       ("output", J.String b.Circuits.Benchmark.output);
       ("center_hz", J.Number b.Circuits.Benchmark.center_hz);
       ("criterion", criterion_to_json t.Pipeline.criterion);
       ("grid_points", J.int (Testability.Grid.n_points t.Pipeline.grid));
       ( "campaign",
         J.Object
           [
             ("equivalence_groups", J.int t.Pipeline.equivalence_groups);
             ("pruned_configs", J.int t.Pipeline.pruned_configs);
           ] );
       ("report", report_to_json ~faults:t.Pipeline.faults r);
     ]
    @ (match coverage with
      | None -> []
      | Some c -> [ ("coverage", coverage_to_json c) ])
    @ match metrics with None -> [] | Some s -> [ ("metrics", metrics_to_json s) ])
