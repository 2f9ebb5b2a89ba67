(* Coverage-directed campaign benchmarks: how many numeric solves does
   the coarse-to-fine refinement actually avoid, and at what
   wall-clock, with the matrices pinned bitwise to the exhaustive
   sweep?

   Each row runs the same campaign twice through the one campaign
   driver — at the default stride 8 (adaptive) and at stride 1
   (exhaustive, Pipeline.run ~adaptive:false) — and reports the
   refinement counters (points, solves, skips, bisections, plus the
   adaptive.solves_skipped counter of a metrics-enabled rerun), both
   wall-clocks, and the solve reduction factor points/solved. Two
   gates hold the process to the repo's invariants instead of merely
   printing numbers:

   - every row's detect/omega matrices must be bitwise identical
     between the two strides (the refinement is an optimization, never
     an approximation);
   - the full leapfrog5 row at 30 points per decade must keep its
     solve reduction at 3x or better — the headline number; a
     calibration regression (guard, stride, measurement floor) shows
     up here before it shows up as wasted campaign time.

   The bigladder row is fault-sampled: the
   point of that row is the dead-view behaviour (reconfigurations that
   disconnect the probed output cost zero solves under the measurement
   floor), not raw size. *)

module P = Mcdft_core.Pipeline
module A = Mcdft_core.Adaptive
module M = Testability.Matrix

type row = {
  circuit : string;
  points_per_decade : int;
  n_faults : int;
  rows_scored : int;
  points : int;
  solved : int;
  skipped : int;
  bisections : int;
  solves_skipped : int;
  reduction : float;
  adaptive_seconds : float;
  exhaustive_seconds : float;
  identical : bool;
}

let time_s f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let registry name =
  match Circuits.Registry.find name with
  | Some b -> b
  | None -> failwith ("bench adaptive: missing benchmark " ^ name)

let bigladder ~stages =
  let netlist, output =
    Conformance.Gen.bigladder ~stages (Random.State.make [| 0x5bad; stages |])
  in
  {
    Circuits.Benchmark.name = Printf.sprintf "bigladder-%d" stages;
    description = "big RC double ladder (dead-view refinement check)";
    netlist;
    source = "V1";
    output;
    center_hz = 10_000.0;
  }

let gate ~what ok =
  if not ok then begin
    Printf.eprintf "bench adaptive: GATE FAILED: %s\n" what;
    exit 1
  end

let row ~ppd ?faults ?min_reduction (b : Circuits.Benchmark.t) =
  let run ~adaptive () =
    P.run ~points_per_decade:ppd ?faults ~jobs:1 ~adaptive b
  in
  Obs.Metrics.set_enabled false;
  ignore (run ~adaptive:true ());
  Gc.full_major ();
  let on, adaptive_seconds = time_s (run ~adaptive:true) in
  Gc.full_major ();
  let off, exhaustive_seconds = time_s (run ~adaptive:false) in
  Gc.full_major ();
  Obs.Metrics.reset ();
  Obs.Metrics.set_enabled true;
  ignore (run ~adaptive:true ());
  Obs.Metrics.set_enabled false;
  let snap = Obs.Metrics.snapshot () in
  Obs.Metrics.reset ();
  let s =
    match on.P.adaptive with
    | Some s -> s
    | None -> failwith "bench adaptive: adaptive run carries no stats"
  in
  let identical =
    on.P.matrix.M.detect = off.P.matrix.M.detect
    && on.P.matrix.M.omega = off.P.matrix.M.omega
  in
  gate
    ~what:
      (Printf.sprintf "%s ppd=%d: adaptive matrices differ from the exhaustive \
                       sweep" b.Circuits.Benchmark.name ppd)
    identical;
  let reduction =
    float_of_int s.A.points /. float_of_int (max 1 s.A.solved)
  in
  Option.iter
    (fun floor ->
      gate
        ~what:
          (Printf.sprintf "%s ppd=%d: solve reduction %.2fx below the %.1fx floor"
             b.Circuits.Benchmark.name ppd reduction floor)
        (reduction >= floor))
    min_reduction;
  {
    circuit = b.Circuits.Benchmark.name;
    points_per_decade = ppd;
    n_faults = List.length on.P.faults;
    rows_scored = s.A.rows;
    points = s.A.points;
    solved = s.A.solved;
    skipped = s.A.skipped;
    bisections = s.A.bisections;
    solves_skipped = Obs.Metrics.counter snap "adaptive.solves_skipped";
    reduction;
    adaptive_seconds;
    exhaustive_seconds;
    identical;
  }

let sampled_faults netlist =
  List.filteri (fun i _ -> i mod 5 = 0) (Fault.deviation_faults netlist)

let rows ~smoke () =
  if smoke then
    [
      row ~ppd:10 (registry "tow-thomas");
      row ~ppd:10 (registry "leapfrog5");
      (let b = bigladder ~stages:40 in
       row ~ppd:4 ~faults:(sampled_faults b.Circuits.Benchmark.netlist) b);
    ]
  else
    [
      row ~ppd:30 (registry "tow-thomas");
      row ~ppd:30 ~min_reduction:3.0 (registry "leapfrog5");
      (let b = bigladder ~stages:100 in
       row ~ppd:6 ~faults:(sampled_faults b.Circuits.Benchmark.netlist) b);
    ]

let to_json rows =
  [
    ( "adaptive",
      Report.Json.Object
        (List.map
           (fun r ->
             ( r.circuit,
               Report.Json.Object
                 [
                   ("points_per_decade", Report.Json.int r.points_per_decade);
                   ("n_faults", Report.Json.int r.n_faults);
                   ("rows", Report.Json.int r.rows_scored);
                   ("points", Report.Json.int r.points);
                   ("solved", Report.Json.int r.solved);
                   ("skipped", Report.Json.int r.skipped);
                   ("bisections", Report.Json.int r.bisections);
                   ("solves_skipped", Report.Json.int r.solves_skipped);
                   ("solve_reduction", Report.Json.Number r.reduction);
                   ("adaptive_seconds", Report.Json.Number r.adaptive_seconds);
                   ( "exhaustive_seconds",
                     Report.Json.Number r.exhaustive_seconds );
                   ("matrices_bitwise_identical", Report.Json.Bool r.identical);
                 ] ))
           rows) );
  ]

let print_rows rows =
  print_endline
    "\n==== ADAPTIVE: coverage-directed campaign refinement ====\n";
  let header =
    [
      "circuit"; "ppd"; "faults"; "solved/points"; "reduction"; "bisections";
      "adaptive (s)"; "exhaustive (s)"; "matrices";
    ]
  in
  print_endline
    (Report.Table.render ~header
       (List.map
          (fun r ->
            [
              r.circuit;
              string_of_int r.points_per_decade;
              string_of_int r.n_faults;
              Printf.sprintf "%d/%d" r.solved r.points;
              Printf.sprintf "%.2fx" r.reduction;
              string_of_int r.bisections;
              Printf.sprintf "%.3f" r.adaptive_seconds;
              Printf.sprintf "%.3f" r.exhaustive_seconds;
              (if r.identical then "bitwise-identical" else "DIFFER");
            ])
          rows));
  print_endline
    "  (matrices are asserted bitwise identical in-process; the full\n\
    \   leapfrog5 row additionally gates its solve reduction at 3x)"

let all ~smoke () =
  let r = rows ~smoke () in
  print_rows r;
  r
