(* The three workloads and the unit of work they share. One unit is what
   a user of `mcdft optimize --json` waits for: parse the SPICE text,
   run the fault-simulation campaign (Pipeline.run), cover
   (Pipeline.optimize) and export the JSON report. The workloads differ
   in which layer that unit spends its time in; README.md gives the
   measured split behind each choice. *)

module P = Mcdft_core.Pipeline

type faults = Deviation | Catastrophic

type t = {
  name : string;
  criterion : Testability.Detect.criterion;
  points_per_decade : int;
  faults : faults;
  circuits : seed:int -> Inputs.circuit list;
}

(* Every campaign runs on one domain. On the shared two-vCPU machine the
   committed numbers come from, jobs=2 bought leapfrog5 a 1.16x speed-up
   for 1.64x the CPU time, and its unit times spread (IQR/median) 0.15
   within one run against 0.06 at jobs=1: a second domain measured the
   host's scheduler more than the program. *)
let jobs = 1

let fixed = Testability.Detect.Fixed_tolerance 0.1

(* Grids are 10 points per decade, so that a unit takes one to three
   seconds and a measuring window holds several. *)
let all =
  [
    (* leapfrog5 (8 opamps, 255 views) under the default envelope
       criterion: the default mcdft optimize run, bound by envelope
       threshold sweeps *)
    {
      name = "lf5-envelope";
      criterion = P.default_criterion;
      points_per_decade = 10;
      faults = Deviation;
      circuits = (fun ~seed -> Inputs.registry ~seed [ "leapfrog5" ]);
    };
    (* 200-stage RC double ladder, MNA size above 200: sparse LU and the
       warm cache; certification gates every view out (symbolic size),
       pruning merges 7 views into 2, cover does nothing *)
    {
      name = "ladder-sparse";
      criterion = fixed;
      points_per_decade = 10;
      faults = Deviation;
      circuits = (fun ~seed -> [ Inputs.ladder ~seed ~stages:200 ]);
    };
    (* 10 small registry circuits with open/short faults under the
       paper's fixed-tolerance criterion: interval certification, which
       proves about a fifth of their points, and Petrick covering, both
       serial, plus per-campaign fixed costs. Left out besides leapfrog5:
       universal-notch and universal-ap, whose serial Petrick expansions
       (1.3 and 1.7 s) would about double the unit. *)
    {
      name = "registry-catastrophic";
      criterion = fixed;
      points_per_decade = 10;
      faults = Catastrophic;
      circuits =
        (fun ~seed ->
          Inputs.registry ~seed
            (List.filter
               (fun n -> not (List.mem n [ "leapfrog5"; "universal-notch"; "universal-ap" ]))
               (Circuits.Registry.names ())));
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

let faults_of w netlist =
  match w.faults with
  | Deviation -> Fault.deviation_faults netlist
  | Catastrophic -> Fault.catastrophic_faults netlist

type outcome = {
  pipeline : P.t;
  report : Mcdft_core.Optimizer.report;
  json_bytes : int;
}

(* One unit of work over every circuit of the workload. The span names
   are the benchmark's own layer boundaries around the public calls;
   with tracing off they cost one atomic load each. *)
let run_unit ?points_per_decade w circuits =
  let points_per_decade = Option.value points_per_decade ~default:w.points_per_decade in
  Obs.Trace.span "unit" @@ fun () ->
  List.map
    (fun c ->
      let b = Obs.Trace.span "spice.parse" (fun () -> Inputs.parse c) in
      let faults = faults_of w b.Circuits.Benchmark.netlist in
      let pipeline = P.run ~criterion:w.criterion ~points_per_decade ~faults ~jobs b in
      let report = P.optimize pipeline in
      let json =
        Obs.Trace.span "report.export" (fun () ->
            Report.Json.to_string (Mcdft_core.Export.pipeline_to_json pipeline report))
      in
      { pipeline; report; json_bytes = String.length json })
    circuits

(* The verdicts a unit decides: views × faults × grid points, summed
   over its circuits. *)
let verdicts outcomes =
  List.fold_left
    (fun acc o ->
      let m = o.pipeline.P.matrix in
      acc
      + Array.length m.Testability.Matrix.views
        * Array.length m.Testability.Matrix.faults
        * Testability.Grid.n_points o.pipeline.P.grid)
    0 outcomes

(* The bit patterns of the detect/omega matrices and the two chosen
   covers, per circuit in order. *)
let digest_of (results : (P.t * Mcdft_core.Optimizer.report) list) =
  let buf = Buffer.create 65536 in
  let add_ints l =
    Buffer.add_int32_le buf (Int32.of_int (List.length l));
    List.iter (fun i -> Buffer.add_int32_le buf (Int32.of_int i)) l
  in
  List.iter
    (fun ((t : P.t), (r : Mcdft_core.Optimizer.report)) ->
      let m = t.P.matrix in
      Buffer.add_int32_le buf (Int32.of_int (Array.length m.Testability.Matrix.detect));
      Array.iter
        (Array.iter (fun d -> Buffer.add_char buf (if d then '1' else '0')))
        m.Testability.Matrix.detect;
      Array.iter
        (Array.iter (fun w -> Buffer.add_int64_le buf (Int64.bits_of_float w)))
        m.Testability.Matrix.omega;
      add_ints r.Mcdft_core.Optimizer.choice_a.Mcdft_core.Optimizer.configs;
      add_ints r.Mcdft_core.Optimizer.choice_b.Mcdft_core.Optimizer.opamps)
    results;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let digest outcomes = digest_of (List.map (fun o -> (o.pipeline, o.report)) outcomes)

(* The exhaustive reference: every view simulated, every point solved,
   nothing certified — the campaign the economized default must match
   bit for bit. *)
let reference_results ?points_per_decade w circuits =
  let points_per_decade = Option.value points_per_decade ~default:w.points_per_decade in
  List.map
    (fun c ->
      let b = Inputs.parse c in
      let t =
        P.run ~criterion:w.criterion ~points_per_decade
          ~faults:(faults_of w b.Circuits.Benchmark.netlist)
          ~jobs ~adaptive:false ~prune:false ~certify:false b
      in
      (t, P.optimize t))
    circuits

let reference ?points_per_decade w circuits =
  digest_of (reference_results ?points_per_decade w circuits)
