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
    ?follower_model ?jobs ?(prune = true) ?(certify = false) ?adaptive:_
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
  let n_views = List.length views in
  (* Equivalence pruning: views whose assembled systems agree
     value-exactly (up to row sign, with every fault-touched row
     locked — see {!Analysis.Lint.value_signature}) produce identical
     verdict rows, so the campaign simulates one representative per
     group and replicates its row. The grouping locks the rows of
     every faulted element under the campaign's own source mode, which
     is what makes the replication exact rather than heuristic. *)
  let groups =
    Obs.Trace.span "pipeline.prune" @@ fun () ->
    if not prune then List.init n_views (fun i -> [ i ])
    else
      let locked_elements =
        List.sort_uniq String.compare
          (List.map (fun f -> f.Fault.element) faults)
      in
      Analysis.Lint.equivalence_groups
        ~sources:(Mna.Assemble.Only probe.Testability.Detect.source)
        ~locked_elements
        (List.map (fun v -> v.Testability.Matrix.netlist) views)
  in
  let n_groups = List.length groups in
  let pruned = n_views - n_groups in
  Obs.Metrics.incr "campaign.equivalence_groups" ~by:n_groups;
  if pruned > 0 then Obs.Metrics.incr "campaign.pruned_configs" ~by:pruned;
  (* representative (first member) of each group, and each view's
     position in the representative list *)
  let rep_of = Array.make n_views 0 in
  List.iteri
    (fun g members -> List.iter (fun i -> rep_of.(i) <- g) members)
    groups;
  let views_arr = Array.of_list views in
  let rep_views =
    List.map (fun members -> views_arr.(List.hd members)) groups
  in
  (* Interval certification is a report, not a campaign input: when
     asked for, the static proofs over the representative views ride
     along in the result, and the campaign below never reads them.
     Only the paper's Definition 1 criterion is certifiable — the
     deviation the intervals bound is exactly the fixed-ε magnitude
     comparison. *)
  let certification =
    match criterion with
    | Testability.Detect.Fixed_tolerance eps when certify && eps > 0.0 ->
        Obs.Trace.span "pipeline.certify" @@ fun () ->
        let specs =
          List.map
            (fun (v : Testability.Matrix.view) ->
              {
                Analysis.Certify.label = v.Testability.Matrix.label;
                netlist = v.Testability.Matrix.netlist;
                source = probe.Testability.Detect.source;
                output = probe.Testability.Detect.output;
              })
            rep_views
        in
        Some
          (Analysis.Certify.certify ~eps
             ~freqs_hz:(Testability.Grid.freqs_hz grid)
             specs faults)
    | _ -> None
  in
  (* One campaign driver: every grid point of every representative row
     is an anchor or a solve. *)
  let rep_matrix, stats = Adaptive.build ~criterion ?jobs grid rep_views faults in
  (* Expand back to the full view list: row i is a copy of its
     representative's row, so the matrix is indistinguishable from an
     unpruned build. *)
  let matrix =
    {
      Testability.Matrix.views = views_arr;
      faults = rep_matrix.Testability.Matrix.faults;
      detect =
        Array.init n_views (fun i ->
            Array.copy rep_matrix.Testability.Matrix.detect.(rep_of.(i)));
      omega =
        Array.init n_views (fun i ->
            Array.copy rep_matrix.Testability.Matrix.omega.(rep_of.(i)));
    }
  in
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
    equivalence_groups = n_groups;
    pruned_configs = pruned;
    certify = certification;
    adaptive = Some stats;
  }

let optimize ?petrick_limit ?n_detect t =
  Obs.Trace.span "pipeline.optimize" @@ fun () ->
  Optimizer.optimize ?petrick_limit ?n_detect t.input

let functional_results t =
  let probe =
    {
      Testability.Detect.source = t.benchmark.Circuits.Benchmark.source;
      output = t.benchmark.Circuits.Benchmark.output;
    }
  in
  Testability.Detect.analyze ~criterion:t.criterion probe t.grid
    t.benchmark.Circuits.Benchmark.netlist t.faults
