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
  (* Cone classes: every view's engine solves its output cone
     ({!Testability.Detect.structure}, one influence analysis per view),
     so views whose cone systems agree value-exactly (up to row sign,
     with every fault-touched row locked — see
     {!Analysis.Lint.value_signature}) and whose passives sit on the
     same entries with the same values
     ({!Testability.Detect.passive_layout}) produce identical verdict
     rows: the campaign simulates one representative per class and
     replicates its row. Every dead view has all-'u' rows, so they form
     one class. With a fault on an element other than a passive in the
     list, every engine solves its whole view, and the key is the
     view's signature. The grouping locks the rows of every
     faulted element under the campaign's own source mode, which is
     what makes the replication exact rather than heuristic. *)
  let views_arr = Array.of_list views in
  let structures, groups =
    Obs.Trace.span "pipeline.prune" @@ fun () ->
    let structures =
      Array.map
        (fun (v : Testability.Matrix.view) ->
          Testability.Detect.structure ~faults probe v.Testability.Matrix.netlist)
        views_arr
    in
    if not prune then (structures, List.init n_views (fun i -> [ i ]))
    else begin
      let sources = Mna.Assemble.Only probe.Testability.Detect.source in
      let locked_elements =
        List.sort_uniq String.compare (List.map (fun f -> f.Fault.element) faults)
      in
      let signature = Analysis.Lint.value_signature ~sources ~locked_elements in
      (* length-prefixed parts, so the concatenation is one-to-one *)
      let key_of parts =
        String.concat ""
          (List.map (fun p -> string_of_int (String.length p) ^ ":" ^ p) parts)
      in
      let key i =
        let s = structures.(i) in
        if Testability.Detect.structure_dead s then "dead"
        else
          key_of
            [
              signature (Testability.Detect.engine_netlist s);
              Testability.Detect.passive_layout s;
            ]
      in
      (structures, Analysis.Lint.group_by_key (List.init n_views key))
    end
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
  (* One campaign driver: one engine call per representative row, which
     solves every point not undetectable by definition. *)
  let rep_matrix, stats =
    Adaptive.campaign ~criterion ?jobs grid
      (List.map
         (fun members ->
           let i = List.hd members in
           (views_arr.(i), structures.(i)))
         groups)
      faults
  in
  (* Expand back to the full view list: row i is a copy of its
     representative's row, so the matrix is indistinguishable from an
     unpruned build. The verdict bytes, deviation rows and nominal rows
     are shared, never mutated. *)
  let expand rows = Array.init n_views (fun i -> Array.copy rows.(rep_of.(i))) in
  let matrix =
    {
      Testability.Matrix.views = views_arr;
      faults = rep_matrix.Testability.Matrix.faults;
      detect = expand rep_matrix.Testability.Matrix.detect;
      omega = expand rep_matrix.Testability.Matrix.omega;
      verdicts = expand rep_matrix.Testability.Matrix.verdicts;
      deviations = expand rep_matrix.Testability.Matrix.deviations;
      nominal = Array.init n_views (fun i -> rep_matrix.Testability.Matrix.nominal.(rep_of.(i)));
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
