module J = Report.Json
module IntSet = Cover.Clause.IntSet

let json_bool_matrix m =
  J.List (Array.to_list (Array.map (fun row -> J.List (Array.to_list (Array.map (fun b -> J.Bool b) row))) m))

let json_float_matrix m =
  J.List (Array.to_list (Array.map (fun row -> J.List (Array.to_list (Array.map (fun x -> J.Number x) row))) m))

let json_ints l = J.List (List.map J.int l)
let json_sets sets = J.List (List.map (fun s -> json_ints (IntSet.elements s)) sets)

let json_config_choice (c : Mcdft_core.Optimizer.config_choice) =
  J.Object
    [ ("configs", json_ints c.configs); ("avg_omega", J.Number c.avg_omega) ]

let json_opamp_choice (c : Mcdft_core.Optimizer.opamp_choice) =
  J.Object
    [
      ("opamps", json_ints c.opamps);
      ("reachable_configs", json_ints c.reachable_configs);
      ("avg_omega_reachable", J.Number c.avg_omega_reachable);
    ]

let json_report (r : Mcdft_core.Optimizer.report) =
  J.Object
    [
      ("uncoverable", json_ints r.uncoverable);
      ("max_coverage", J.Number r.max_coverage);
      ("functional_coverage", J.Number r.functional_coverage);
      ("functional_avg_omega", J.Number r.functional_avg_omega);
      ("brute_force_avg_omega", J.Number r.brute_force_avg_omega);
      ("essential", json_ints r.essential);
      ( "xi_terms_min",
        match r.xi_terms_min with None -> J.Null | Some t -> json_sets t );
      ("min_config_sets", json_sets r.min_config_sets);
      ("choice_a", json_config_choice r.choice_a);
      ("min_opamp_sets", json_sets r.min_opamp_sets);
      ("choice_b", json_opamp_choice r.choice_b);
    ]

let render_paper_tables () =
  let module P = Mcdft_core.Paper_data in
  let input =
    Mcdft_core.Optimizer.input_of_matrices ~n_opamps:P.n_opamps
      P.detectability_matrix P.omega_table
  in
  let report = Mcdft_core.Optimizer.optimize input in
  let doc =
    J.Object
      [
        ("schema", J.int 1);
        ( "published",
          J.Object
            [
              ( "fault_names",
                J.List
                  (Array.to_list (Array.map (fun s -> J.String s) P.fault_names))
              );
              ("n_opamps", J.int P.n_opamps);
              ("detectability_matrix", json_bool_matrix P.detectability_matrix);
              ("omega_table", json_float_matrix P.omega_table);
              ("functional_coverage", J.Number P.functional_coverage);
              ("functional_avg_omega", J.Number P.functional_avg_omega);
              ("dft_avg_omega", J.Number P.dft_avg_omega);
              ("optimal_config_set", json_ints P.optimal_config_set);
              ("optimal_config_avg_omega", J.Number P.optimal_config_avg_omega);
              ("rejected_config_avg_omega", J.Number P.rejected_config_avg_omega);
              ("optimal_opamp_set", json_ints P.optimal_opamp_set);
              ("partial_dft_avg_omega", J.Number P.partial_dft_avg_omega);
            ] );
        ("optimizer", json_report report);
      ]
  in
  J.to_string ~indent:2 doc ^ "\n"

(* Coarser than the default 30 points/decade: the snapshot's job is to
   pin the detect/omega tables and the optimizer's decisions, and 12
   points per decade keeps `dune runtest` re-rendering cheap while
   still resolving every detectability region edge to the same grid
   points run after run. *)
let simulated_ppd = 12

let render_tow_thomas () =
  let b = Circuits.Tow_thomas.make () in
  let t = Mcdft_core.Pipeline.run ~points_per_decade:simulated_ppd ~jobs:1 b in
  let report = Mcdft_core.Pipeline.optimize t in
  let m = t.Mcdft_core.Pipeline.matrix in
  let doc =
    J.Object
      [
        ("schema", J.int 1);
        ("benchmark", J.String b.Circuits.Benchmark.name);
        ("points_per_decade", J.int simulated_ppd);
        ("jobs", J.int 1);
        ( "views",
          J.List
            (Array.to_list
               (Array.map
                  (fun (v : Testability.Matrix.view) -> J.String v.label)
                  m.Testability.Matrix.views)) );
        ( "faults",
          J.List
            (Array.to_list
               (Array.map
                  (fun (f : Fault.t) -> J.String f.Fault.id)
                  m.Testability.Matrix.faults)) );
        ("detect", json_bool_matrix m.Testability.Matrix.detect);
        ("omega", json_float_matrix m.Testability.Matrix.omega);
        ("optimizer", json_report report);
      ]
  in
  J.to_string ~indent:2 doc ^ "\n"

(* The snapshot registry: [(file_name, render)] pairs.
   "paper_tables.json" embeds the published Figure 5 / Table 2 data and
   the optimizer's §4 results on them; "tow_thomas_simulated.json" the
   full simulated pipeline (jobs:1) on the Tow-Thomas benchmark. *)
let all =
  [
    ("paper_tables.json", render_paper_tables);
    ("tow_thomas_simulated.json", render_tow_thomas);
  ]

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let check ~dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    raise
      (Sys_error
         (Printf.sprintf
            "snapshot directory %s not found; run from the repository root or \
             pass --snapshot-dir"
            dir));
  let drifts =
    List.filter_map
      (fun (name, render) ->
        let path = Filename.concat dir name in
        if not (Sys.file_exists path) then
          Some (Printf.sprintf "%s: missing (run with --update-snapshots)" path)
        else
          let want = render () and have = read_file path in
          if String.equal want have then None
          else
            Some
              (Printf.sprintf
                 "%s: drift (%d bytes on disk, %d rendered); inspect and rerun \
                  with --update-snapshots if intended"
                 path (String.length have) (String.length want)))
      all
  in
  match drifts with [] -> Ok () | ds -> Error (String.concat "\n" ds)

let update ~dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.map
    (fun (name, render) ->
      let path = Filename.concat dir name in
      let oc = open_out_bin path in
      output_string oc (render ());
      close_out oc;
      path)
    all
