(* Bechamel timing benches for the computational kernels behind each
   experiment: MNA solves and sweeps (the fault simulator), symbolic
   extraction, detectability analysis, and the covering solvers. *)

open Bechamel
open Toolkit

module P = Mcdft_core.Pipeline
module PD = Mcdft_core.Paper_data

let biquad = Circuits.Tow_thomas.make ()
let biquad_netlist = biquad.Circuits.Benchmark.netlist
let leapfrog = Circuits.Leapfrog.make ()

let grid_small = Testability.Grid.around ~points_per_decade:5 ~center_hz:1000.0 ()

let probe = { Testability.Detect.source = "Vin"; output = "v2" }

let paper_problem = Cover.Clause.of_matrix PD.detectability_matrix

let random_problem ~n ~m seed =
  let st = Random.State.make [| seed |] in
  let d = Array.init n (fun _ -> Array.init m (fun _ -> Random.State.float st 1.0 < 0.25)) in
  for j = 0 to m - 1 do
    if not (Array.exists (fun row -> row.(j)) d) then d.(Random.State.int st n).(j) <- true
  done;
  Cover.Clause.of_matrix d

let big_problem = random_problem ~n:31 ~m:60 7

(* The reduced ξ of tt-notch's catastrophic campaign (fixed:0.1, ppd 10):
   15 candidates, 22 clauses, 31,619 raw terms. Forced by [benchmark]
   before timing starts. *)
let tt_notch_xi =
  lazy
    (let b = Option.get (Circuits.Registry.find "tt-notch") in
     let t =
       P.run ~criterion:(Testability.Detect.Fixed_tolerance 0.1) ~points_per_decade:10
         ~faults:(Fault.catastrophic_faults b.Circuits.Benchmark.netlist)
         b
     in
     (P.optimize t).Mcdft_core.Optimizer.xi_reduced)

let dft = Multiconfig.Transform.make ~source:"Vin" ~output:"v2" biquad_netlist
let c5 = Multiconfig.Configuration.make ~n_opamps:3 5

let fastsim =
  Testability.Fastsim.create ~source:"Vin" ~output:"v2"
    ~freqs_hz:(Testability.Grid.freqs_hz grid_small) biquad_netlist

let r4_dev = Fault.deviation ~element:"R4" 1.2

(* The engine set-up a campaign pays per view, on one of leapfrog5's
   cone engines: the output cone of its C0 view (n = 26, nnz = 75), on
   the ppd-10 grid (41 frequencies), its values at the grid's middle
   frequency as the engine analyzes them. *)
let lf5_cone =
  let b = leapfrog in
  let source = b.Circuits.Benchmark.source and output = b.Circuits.Benchmark.output in
  let netlist = b.Circuits.Benchmark.netlist in
  let dft = Multiconfig.Transform.make ~source ~output netlist in
  let view =
    Multiconfig.Transform.emulate dft
      (List.hd (Multiconfig.Transform.test_configurations dft))
  in
  Testability.Detect.engine_netlist
    (Testability.Detect.structure ~faults:(Fault.deviation_faults netlist)
       { Testability.Detect.source; output } view)

let lf5_freqs =
  Testability.Grid.freqs_hz
    (Testability.Grid.around ~points_per_decade:10
       ~center_hz:leapfrog.Circuits.Benchmark.center_hz ())

let lf5_index = Mna.Index.build lf5_cone
let lf5_sources = Mna.Assemble.Only leapfrog.Circuits.Benchmark.source
let lf5_stamps = Mna.Stamps.build_sparse ~sources:lf5_sources lf5_index lf5_cone

let lf5_values =
  let vals = Linalg.Csparse.plane (2 * Mna.Stamps.sparse_nnz lf5_stamps) in
  Mna.Stamps.fill_sparse lf5_stamps
    ~omega:(2.0 *. Float.pi *. lf5_freqs.(Array.length lf5_freqs / 2))
    vals;
  vals

let lf5_pool = Testability.Fastsim.pool ~dim:(Mna.Index.size lf5_index)

let tests =
  [
    (* E1/E3/E4 kernel: one AC solve and one log sweep *)
    Test.make ~name:"mna/solve biquad (1 freq)" (Staged.stage (fun () ->
        ignore (Mna.Ac.transfer ~source:"Vin" ~output:"v2" biquad_netlist ~omega:6283.0)));
    Test.make ~name:"mna/solve leapfrog (1 freq)" (Staged.stage (fun () ->
        ignore
          (Mna.Ac.transfer ~source:"Vin" ~output:"y5"
             leapfrog.Circuits.Benchmark.netlist ~omega:6283.0)));
    Test.make ~name:"mna/sweep biquad (21 freqs)" (Staged.stage (fun () ->
        ignore
          (Mna.Ac.sweep ~source:"Vin" ~output:"v2" biquad_netlist
             ~freqs_hz:(Testability.Grid.freqs_hz grid_small))));
    (* the campaign engine: rank-1 faulty sweep against the cached LU *)
    Test.make ~name:"fastsim/rank1 sweep (21 freqs)" (Staged.stage (fun () ->
        ignore (Testability.Fastsim.response fastsim r4_dev)));
    (* the engine's set-up on a leapfrog5 cone: Markowitz analysis,
       sparse stamps, and a whole engine build on a warm pool *)
    Test.make ~name:"csparse/analyze lf5 cone" (Staged.stage (fun () ->
        ignore
          (Linalg.Csparse.analyze (Mna.Stamps.sparse_pattern lf5_stamps) lf5_values)));
    Test.make ~name:"mna/stamps sparse lf5 cone" (Staged.stage (fun () ->
        ignore (Mna.Stamps.build_sparse ~sources:lf5_sources lf5_index lf5_cone)));
    Test.make ~name:"fastsim/create lf5 cone (41 freqs)" (Staged.stage (fun () ->
        Testability.Fastsim.with_engine ~pool:lf5_pool
          ~source:leapfrog.Circuits.Benchmark.source
          ~output:leapfrog.Circuits.Benchmark.output ~freqs_hz:lf5_freqs lf5_cone ignore));
    (* symbolic oracle *)
    Test.make ~name:"symbolic/transfer biquad" (Staged.stage (fun () ->
        ignore (Mna.Symbolic.transfer ~source:"Vin" ~output:"v2" biquad_netlist)));
    (* E1: one fault analysis under both criteria *)
    Test.make ~name:"detect/fault, fixed eps" (Staged.stage (fun () ->
        ignore
          (Testability.Detect.analyze
             ~criterion:(Testability.Detect.Fixed_tolerance 0.1) probe grid_small
             biquad_netlist
             [ Fault.deviation ~element:"R4" 1.2 ])));
    Test.make ~name:"detect/fault, envelope" (Staged.stage (fun () ->
        ignore
          (Testability.Detect.analyze
             ~criterion:
               (Testability.Detect.Process_envelope { component_tol = 0.04; floor = 0.02 })
             probe grid_small biquad_netlist
             [ Fault.deviation ~element:"R4" 1.2 ])));
    (* E3: configuration emulation *)
    Test.make ~name:"multiconfig/emulate C5" (Staged.stage (fun () ->
        ignore (Multiconfig.Transform.emulate dft c5)));
    (* E6-E8 kernels: covering machinery on the paper instance *)
    Test.make ~name:"cover/petrick paper 7x8" (Staged.stage (fun () ->
        ignore (Cover.Petrick.expand paper_problem)));
    Test.make ~name:"cover/petrick raw tt-notch" (Staged.stage (fun () ->
        ignore (Cover.Petrick.expand_raw (Lazy.force tt_notch_xi))));
    Test.make ~name:"cover/petrick count tt-notch" (Staged.stage (fun () ->
        ignore (Cover.Petrick.count_raw (Lazy.force tt_notch_xi))));
    Test.make ~name:"cover/petrick min tt-notch" (Staged.stage (fun () ->
        ignore (Cover.Petrick.expand (Lazy.force tt_notch_xi))));
    Test.make ~name:"cover/exact paper 7x8" (Staged.stage (fun () ->
        ignore (Cover.Solver.exact paper_problem)));
    Test.make ~name:"cover/greedy paper 7x8" (Staged.stage (fun () ->
        ignore (Cover.Solver.greedy paper_problem)));
    (* X2 kernel: a leapfrog-sized covering instance *)
    Test.make ~name:"cover/exact random 31x60" (Staged.stage (fun () ->
        ignore (Cover.Solver.exact big_problem)));
    Test.make ~name:"cover/greedy random 31x60" (Staged.stage (fun () ->
        ignore (Cover.Solver.greedy big_problem)));
  ]

let benchmark () =
  ignore (Lazy.force tt_notch_xi);
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) ~kde:(Some 500) () in
  let grouped = Test.make_grouped ~name:"mcdft" ~fmt:"%s %s" tests in
  let raw = Benchmark.all cfg instances grouped in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let results = List.map (fun instance -> Analyze.all ols instance raw) instances in
  Analyze.merge ols instances results

(* [(kernel name, ns/run)] rows, sorted by name; kernels whose OLS fit
   failed are dropped. *)
let rows_of results =
  Hashtbl.fold
    (fun _instance tbl acc ->
      Hashtbl.fold
        (fun name ols acc ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> (name, est) :: acc
          | _ -> acc)
        tbl acc)
    results []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let print_rows rows =
  print_endline "\n==== PERF: Bechamel kernel timings ====\n";
  let printable = List.map (fun (name, ns) -> [ name; Printf.sprintf "%.1f" ns ]) rows in
  print_endline (Report.Table.render ~header:[ "kernel"; "time (ns/run)" ] printable)

let all () =
  let rows = rows_of (benchmark ()) in
  print_rows rows;
  rows
