(* Sparse engine benchmarks: the dense/sparse crossover table and the
   bigladder acceptance campaign.

   The crossover table times one Fastsim.create (the sparse engine)
   against one Mna.Ac.sweep (the dense planar LU) over a small
   frequency grid at growing ladder sizes — each is exactly "assemble
   + factor + nominal solve per frequency", so seconds divided by grid
   points is the per-frequency solve cost each factorization pays. The
   campaign times the default Pipeline.run on a 300-stage bigladder
   (MNA dimension > 300), checks each view's detect row against the
   per-view Detect.analyze reference verdict-for-verdict, and checks that
   pruning (on by default) replicates rows bitwise-identically to a
   ~prune:false run while skipping real work. Both facts land in
   BENCH_<date>.json next to the timings. *)

module P = Mcdft_core.Pipeline
module M = Testability.Matrix
module F = Testability.Fastsim

type crossover_row = {
  stages : int;
  dim : int;  (* MNA unknowns *)
  nnz : int;
  dense_ns_per_solve : float;
  sparse_ns_per_solve : float;
}

type campaign = {
  circuit : string;
  mna_dim : int;
  points_per_decade : int;
  n_faults : int;
  sparse_seconds : float;
  verdicts_identical : bool;
  equivalence_groups : int;
  pruned_configs : int;
  noprune_seconds : float;
  prune_bitwise_identical : bool;
}

type t = { crossover : crossover_row list; campaign : campaign }

let time_s f =
  let t0 = Unix.gettimeofday () in
  ignore (f ());
  Unix.gettimeofday () -. t0

(* One deterministic bigladder per size: the seed array keys the value
   draws off the stage count so every run times the same circuit. *)
let circuit_of ~stages =
  Conformance.Gen.bigladder ~stages (Random.State.make [| 0x5bad; stages |])

let center_hz = 10_000.0

let crossover ~smoke () =
  let sizes = if smoke then [ 40; 80; 160 ] else [ 40; 80; 160; 320; 640 ] in
  (* a short grid keeps the biggest dense point affordable; ns/solve
     normalizes the grid length away *)
  let grid = Testability.Grid.around ~points_per_decade:3 ~center_hz () in
  let freqs_hz = Testability.Grid.freqs_hz grid in
  let n_solves = float_of_int (Array.length freqs_hz) in
  List.map
    (fun stages ->
      let netlist, output = circuit_of ~stages in
      let sp = Mna.Stamps.build_sparse (Mna.Index.build netlist) netlist in
      let sparse () = F.create ~source:"V1" ~output ~freqs_hz netlist in
      let dense () = Mna.Ac.sweep ~source:"V1" ~output netlist ~freqs_hz in
      (* untimed first build per size settles the allocator pages the
         timed builds would otherwise fault in *)
      ignore (sparse ());
      let dense_s = time_s dense in
      let sparse_s = time_s sparse in
      {
        stages;
        dim = Mna.Stamps.sparse_size sp;
        nnz = Mna.Stamps.sparse_nnz sp;
        dense_ns_per_solve = dense_s *. 1e9 /. n_solves;
        sparse_ns_per_solve = sparse_s *. 1e9 /. n_solves;
      })
    sizes

let campaign ~smoke () =
  let stages = if smoke then 100 else 300 in
  let ppd = 10 in
  let netlist, output = circuit_of ~stages in
  let dim = Mna.Stamps.sparse_size (Mna.Stamps.build_sparse (Mna.Index.build netlist) netlist) in
  let b =
    {
      Circuits.Benchmark.name = Printf.sprintf "bigladder-%d" stages;
      description = "big RC double ladder (sparse acceptance)";
      netlist;
      source = "V1";
      output;
      center_hz;
    }
  in
  (* every 5th passive: enough faults to exercise the SMW machinery
     without the per-view w-cache dominating memory at this
     dimension *)
  let faults =
    List.filteri (fun i _ -> i mod 5 = 0) (Fault.deviation_faults netlist)
  in
  let run ~prune () = P.run ~points_per_decade:ppd ~faults ~jobs:1 ~prune b in
  let sparse_t = run ~prune:true () in
  let sparse_seconds = time_s (run ~prune:true) in
  Gc.full_major ();
  let noprune_t = ref sparse_t in
  let noprune_seconds =
    time_s (fun () ->
        noprune_t := run ~prune:false ();
        !noprune_t)
  in
  let noprune_t = !noprune_t in
  let m = sparse_t.P.matrix in
  let verdicts_identical =
    Array.for_all2
      (fun (v : M.view) row ->
        List.map
          (fun r -> r.Testability.Detect.detectable)
          (Testability.Detect.analyze ~criterion:P.default_criterion
             v.M.probe sparse_t.P.grid v.M.netlist faults)
        = Array.to_list row)
      m.M.views m.M.detect
  in
  {
    circuit = b.Circuits.Benchmark.name;
    mna_dim = dim;
    points_per_decade = ppd;
    n_faults = List.length faults;
    sparse_seconds;
    verdicts_identical;
    equivalence_groups = sparse_t.P.equivalence_groups;
    pruned_configs = sparse_t.P.pruned_configs;
    noprune_seconds;
    prune_bitwise_identical =
      sparse_t.P.matrix.M.detect = noprune_t.P.matrix.M.detect
      && sparse_t.P.matrix.M.omega = noprune_t.P.matrix.M.omega;
  }

let to_json { crossover; campaign = c } =
  [
    ( "sparse_crossover",
      Report.Json.List
        (List.map
           (fun r ->
             Report.Json.Object
               [
                 ("stages", Report.Json.int r.stages);
                 ("n", Report.Json.int r.dim);
                 ("nnz", Report.Json.int r.nnz);
                 ("dense_ns_per_solve", Report.Json.Number r.dense_ns_per_solve);
                 ("sparse_ns_per_solve", Report.Json.Number r.sparse_ns_per_solve);
               ])
           crossover) );
    ( "sparse_campaign",
      Report.Json.Object
        [
          ("circuit", Report.Json.String c.circuit);
          ("mna_dim", Report.Json.int c.mna_dim);
          ("points_per_decade", Report.Json.int c.points_per_decade);
          ("n_faults", Report.Json.int c.n_faults);
          ("sparse_seconds", Report.Json.Number c.sparse_seconds);
          ("verdicts_identical", Report.Json.Bool c.verdicts_identical);
          ("equivalence_groups", Report.Json.int c.equivalence_groups);
          ("pruned_configs", Report.Json.int c.pruned_configs);
          ("noprune_seconds", Report.Json.Number c.noprune_seconds);
          ( "prune_matrices_bitwise_identical",
            Report.Json.Bool c.prune_bitwise_identical );
        ] );
  ]

let print_result { crossover; campaign = c } =
  print_endline "\n==== SPARSE: dense/sparse crossover (ns per A(jw) factor+solve) ====\n";
  print_endline
    (Report.Table.render
       ~header:[ "stages"; "n"; "nnz"; "dense ns/solve"; "sparse ns/solve"; "ratio" ]
       (List.map
          (fun r ->
            [
              string_of_int r.stages;
              string_of_int r.dim;
              string_of_int r.nnz;
              Printf.sprintf "%.0f" r.dense_ns_per_solve;
              Printf.sprintf "%.0f" r.sparse_ns_per_solve;
              Printf.sprintf "%.1fx" (r.dense_ns_per_solve /. r.sparse_ns_per_solve);
            ])
          crossover));
  Printf.printf
    "\n==== SPARSE: %s campaign (n=%d, ppd=%d, %d faults) ====\n\n"
    c.circuit c.mna_dim c.points_per_decade c.n_faults;
  Printf.printf "  sparse  : %.3f s   (verdicts %s to per-view Detect.analyze)\n"
    c.sparse_seconds
    (if c.verdicts_identical then "identical" else "DIFFER");
  Printf.printf
    "  pruning : %d groups, %d rows replicated; no-prune %.3f s, matrices %s\n"
    c.equivalence_groups c.pruned_configs c.noprune_seconds
    (if c.prune_bitwise_identical then "bitwise-identical" else "DIFFER")

let all ~smoke () =
  let r = { crossover = crossover ~smoke (); campaign = campaign ~smoke () } in
  print_result r;
  r
