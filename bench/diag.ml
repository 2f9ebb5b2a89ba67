(* Diagnosis-layer reproduction numbers: trajectory ambiguity-group
   sizes and the cover-solver work counters behind the n-detection
   optimizer. Unlike the campaign rows these are not timings — they are
   the structural quantities a reviewer checks against the circuit
   (how many faults are uniquely locatable, how hard the covering
   instances were) — so each case runs once, metrics-enabled. *)

module P = Mcdft_core.Pipeline
module T = Diagnosis.Trajectory

type row = {
  label : string;
  resolution : float;
  group_sizes : int list;  (* descending; one entry per ambiguity set *)
  counters : (string * int) list;
}

(* Solve-effort counters of one optimize(n=1) + optimize(n=2) +
   full classification round-trip. *)
let counter_columns =
  [
    "cover.bnb_nodes";
    "cover.greedy_gain_evals";
    "cover.preprocess_forced";
    "cover.preprocess_dominated";
    "diagnosis.trajectories_built";
    "diagnosis.classifications";
  ]

let row ~ppd b =
  let t = P.run ~points_per_decade:ppd ~jobs:1 b in
  Obs.Metrics.reset ();
  Obs.Metrics.set_enabled true;
  ignore (P.optimize t);
  ignore (P.optimize ~n_detect:2 t);
  (* force the branch-and-bound path too (petrick_limit 0), so the
     bnb-node counter reflects the exact solver on this instance, and
     one greedy solve of the same n=2 system for the gain-eval count *)
  ignore (P.optimize ~petrick_limit:0 ~n_detect:2 t);
  ignore
    (Cover.Solver.greedy
       (Cover.Clause.of_matrix ~n:2 t.P.input.Mcdft_core.Optimizer.detect));
  let traj = T.of_pipeline t in
  List.iteri (fun j _ -> ignore (T.classify traj (T.signature traj j))) (T.faults traj);
  let snap = Obs.Metrics.snapshot () in
  Obs.Metrics.set_enabled false;
  Obs.Metrics.reset ();
  let group_sizes =
    List.map List.length (T.ambiguity_sets traj)
    |> List.sort (fun a b -> Int.compare b a)
  in
  {
    label = Printf.sprintf "diagnosis/%s ppd=%d" b.Circuits.Benchmark.name ppd;
    resolution = T.resolution traj;
    group_sizes;
    counters = List.map (fun c -> (c, Obs.Metrics.counter snap c)) counter_columns;
  }

let rows ~smoke () =
  let cases =
    if smoke then [ (Circuits.Tow_thomas.make (), 10) ]
    else [ (Circuits.Tow_thomas.make (), 30); (Circuits.Leapfrog.make (), 30) ]
  in
  List.map (fun (b, ppd) -> row ~ppd b) cases

let print_rows rows =
  print_endline "\n==== DIAGNOSIS: ambiguity groups and cover-solver work ====\n";
  let header =
    [ "case"; "resolution"; "group sizes"; "bnb nodes"; "gain evals"; "classify" ]
  in
  let printable =
    List.map
      (fun r ->
        let c name = string_of_int (List.assoc name r.counters) in
        [
          r.label;
          Printf.sprintf "%.1f%%" (100.0 *. r.resolution);
          String.concat "," (List.map string_of_int r.group_sizes);
          c "cover.bnb_nodes";
          c "cover.greedy_gain_evals";
          c "diagnosis.classifications";
        ])
      rows
  in
  print_endline (Report.Table.render ~header printable)

let all ~smoke () =
  let rows = rows ~smoke () in
  print_rows rows;
  rows
