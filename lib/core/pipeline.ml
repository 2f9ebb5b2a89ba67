type t = {
  benchmark : Circuits.Benchmark.t;
  dft : Multiconfig.Transform.t;
  grid : Testability.Grid.t;
  criterion : Testability.Detect.criterion;
  faults : Fault.t list;
  matrix : Testability.Matrix.t;
  input : Optimizer.input;
  equivalence_groups : int;
  pruned_configs : int;
  certify : Analysis.Certify.t option;
  adaptive : Adaptive.stats option;
}

let default_criterion =
  Testability.Detect.Process_envelope { component_tol = 0.04; floor = 0.02 }

let run ?(criterion = default_criterion) ?(points_per_decade = 30) ?faults
    ?follower_model ?jobs ?(prune = true) ?certify:_ ?adaptive:_
    (benchmark : Circuits.Benchmark.t) =
  Obs.Trace.span "pipeline.run" @@ fun () ->
  let netlist = benchmark.Circuits.Benchmark.netlist in
  Circuit.Validate.check_exn netlist;
  let dft =
    Obs.Trace.span "pipeline.transform" @@ fun () ->
    Multiconfig.Transform.make ~source:benchmark.Circuits.Benchmark.source
      ~output:benchmark.Circuits.Benchmark.output netlist
  in
  let grid =
    Testability.Grid.around ~points_per_decade
      ~center_hz:benchmark.Circuits.Benchmark.center_hz ()
  in
  let faults = match faults with Some f -> f | None -> Fault.deviation_faults netlist in
  let probe =
    {
      Testability.Detect.source = benchmark.Circuits.Benchmark.source;
      output = benchmark.Circuits.Benchmark.output;
    }
  in
  let views =
    Obs.Trace.span "pipeline.views" @@ fun () ->
    List.map
      (fun config ->
        {
          Testability.Matrix.label = Multiconfig.Configuration.label config;
          netlist = Multiconfig.Transform.emulate ?follower_model dft config;
          probe;
        })
      (Multiconfig.Transform.test_configurations dft)
  in
  let matrix, stats = Adaptive.build ~criterion ?jobs ~prune grid views faults in
  let n_classes = List.length stats.Adaptive.classes in
  let omega_percent =
    Array.map (Array.map (fun v -> v *. 100.0)) matrix.Testability.Matrix.omega
  in
  let input =
    Optimizer.input_of_matrices ~n_opamps:(Multiconfig.Transform.n_opamps dft)
      matrix.Testability.Matrix.detect omega_percent
  in
  {
    benchmark;
    dft;
    grid;
    criterion;
    faults;
    matrix;
    input;
    equivalence_groups = n_classes;
    pruned_configs = Testability.Matrix.n_views matrix - n_classes;
    certify = None;
    adaptive = Some stats;
  }

let optimize ?petrick_limit ?n_detect t =
  Obs.Trace.span "pipeline.optimize" @@ fun () ->
  Optimizer.optimize ?petrick_limit ?n_detect t.input
