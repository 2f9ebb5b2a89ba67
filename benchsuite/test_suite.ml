open Benchsuite
module Netlist = Circuit.Netlist
module Element = Circuit.Element

let close ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps *. Float.max 1.0 (Float.abs b)
let check_float ?eps msg expected got =
  Alcotest.(check bool) (Printf.sprintf "%s: %g" msg got) true (close ?eps got expected)

(* ---- spans ---- *)

let ev ?(tid = 0) name start stop =
  { Obs.Trace.name; ts_us = start *. 1e6; dur_us = (stop -. start) *. 1e6; tid }

(* unit [0,100] ⊃ parse [0,10], run [10,90] ⊃ (build [20,80] ⊃
   (prepare [20,50] ⊃ create [20,30])), mystery [85,88]; export
   [90,98]. A second lane's span must not nest into lane 0. *)
let synthetic =
  [
    ev "unit" 0. 100.;
    ev "spice.parse" 0. 10.;
    ev "pipeline.run" 10. 90.;
    ev "adaptive.build" 20. 80.;
    ev "adaptive.prepare C1" 20. 50.;
    ev "fastsim.create" 20. 30.;
    ev "mystery" 85. 88.;
    ev "report.export" 90. 98.;
    ev ~tid:1 "parallel.worker" 25. 75.;
  ]

let test_self_times () =
  let selfs = Spans.self_times synthetic in
  let self name tid =
    List.find_map
      (fun ((e : Obs.Trace.event), s) ->
        if e.name = name && e.tid = tid then Some (s *. 1e-6) else None)
      selfs
    |> Option.get
  in
  List.iter
    (fun (name, tid, expected) -> check_float name expected (self name tid))
    [
      ("unit", 0, 2.);
      ("spice.parse", 0, 10.);
      ("pipeline.run", 0, 17.);
      ("adaptive.build", 0, 30.);
      ("adaptive.prepare C1", 0, 20.);
      ("fastsim.create", 0, 10.);
      ("mystery", 0, 3.);
      ("report.export", 0, 8.);
      ("parallel.worker", 1, 50.);
    ]

let test_attribution () =
  let layers =
    [
      ("spice.parse", "parse_s");
      ("pipeline.run", "pipeline_s");
      ("adaptive.prepare", "thresholds_s");
      ("fastsim.create", "engine_s");
      ("adaptive.build", "score_s");
      ("report.export", "export_s");
      ("adaptive", "never_s");
    ]
  in
  let lane0 = List.filter (fun (e : Obs.Trace.event) -> e.tid = 0) synthetic in
  let a = Spans.attribute ~root:"unit" ~layers lane0 in
  check_float "wall" 100. a.Spans.wall_s;
  List.iter
    (fun (metric, expected) -> check_float metric expected (List.assoc metric a.Spans.layers))
    [
      ("parse_s", 10.);
      ("pipeline_s", 17.);
      ("thresholds_s", 20.);
      ("engine_s", 10.);
      ("score_s", 30.);
      ("export_s", 8.);
      ("never_s", 0.);
    ];
  (* the remainder is the root's own time plus every unclaimed span *)
  check_float "unattributed" 5. a.Spans.unattributed_s;
  Alcotest.(check (list string)) "unclaimed" [ "mystery"; "unit" ] (List.map fst a.Spans.unclaimed);
  let attributed = List.fold_left (fun acc (_, s) -> acc +. s) 0. a.Spans.layers in
  check_float "layers + remainder = wall" a.Spans.wall_s (attributed +. a.Spans.unattributed_s)

(* ---- stats: values from Python's statistics module ---- *)

let test_stats () =
  check_float "median odd" 2. (Stats.median [ 3.; 1.; 2. ]);
  check_float "median even" 2.5 (Stats.median [ 4.; 1.; 3.; 2. ]);
  let q1, q2, q3 = Stats.quartiles [ 1.; 2.; 3.; 4. ] in
  List.iter2 (fun e g -> check_float "quartiles 1..4" e g) [ 1.25; 2.5; 3.75 ] [ q1; q2; q3 ];
  let q1, q2, q3 = Stats.quartiles (List.init 10 (fun i -> float_of_int (10 - i))) in
  List.iter2 (fun e g -> check_float "quartiles 1..10" e g) [ 2.75; 5.5; 8.25 ] [ q1; q2; q3 ];
  check_float "iqr" 5.5 (Stats.iqr (List.init 10 (fun i -> float_of_int (i + 1))));
  check_float "iqr of one" 0. (Stats.iqr [ 4.2 ])

(* ---- host speed correction ---- *)

let test_host () =
  let r = Host.reference_s in
  check_float "reference speed" 1. (Host.factor [ r ]);
  check_float "before and after" 1.5 (Host.factor [ r; 2. *. r ]);
  let s = Runner.corrected 1.25 { Runner.wall_s = 2.5; cpu_s = 2.0 } in
  check_float "wall" 2. s.Runner.wall_s;
  check_float "cpu" 1.6 s.Runner.cpu_s;
  Alcotest.(check bool) "a kernel sample takes time" true (Host.sample () > 0.)

(* ---- inputs ---- *)

let texts w ~seed = List.map (fun c -> c.Inputs.text) (w.Workload.circuits ~seed)

let test_same_seed_same_text () =
  List.iter
    (fun w ->
      Alcotest.(check (list string)) w.Workload.name (texts w ~seed:7) (texts w ~seed:7);
      Alcotest.(check bool) (w.Workload.name ^ " seed matters") false
        (texts w ~seed:7 = texts w ~seed:8))
    Workload.all

let test_seed0_is_registry () =
  List.iter
    (fun (b : Circuits.Benchmark.t) ->
      let parsed = (Inputs.parse (List.hd (Inputs.registry ~seed:0 [ b.name ]))).netlist in
      let orig = Netlist.elements b.netlist and got = Netlist.elements parsed in
      Alcotest.(check int) (b.name ^ " size") (List.length orig) (List.length got);
      List.iter2
        (fun e e' ->
          Alcotest.(check string) (b.name ^ " name") (Element.name e) (Element.name e');
          Alcotest.(check (list string)) (b.name ^ " nodes") (Element.nodes e) (Element.nodes e');
          match (Element.value e, Element.value e') with
          | Some v, Some v' ->
              (* the writer prints six significant digits *)
              check_float ~eps:1e-5 (b.name ^ " " ^ Element.name e) v v'
          | None, None -> ()
          | _ -> Alcotest.fail (b.name ^ ": element kind changed"))
        orig got)
    (Circuits.Registry.all ())

let test_inputs_parse () =
  List.iter
    (fun w ->
      List.iter
        (fun seed ->
          List.iter
            (fun c ->
              let b = Inputs.parse c in
              Alcotest.(check bool) (c.Inputs.name ^ " has opamps") true
                (Netlist.opamps b.netlist <> []);
              Alcotest.(check bool) (c.Inputs.name ^ " output node exists") true
                (List.mem c.Inputs.output (Netlist.nodes b.netlist)))
            (w.Workload.circuits ~seed))
        [ 0; 1; 2 ])
    Workload.all

(* ---- smoke: every workload at a tiny grid, checked like a real run ---- *)

let points_per_decade = 1

let test_smoke () =
  List.iter
    (fun w ->
      let circuits = w.Workload.circuits ~seed:1 in
      let outcomes = Workload.run_unit ~points_per_decade w circuits in
      let digest = Workload.digest outcomes in
      let reference = Workload.reference_results ~points_per_decade w circuits in
      Alcotest.(check int) (w.name ^ " matches the exhaustive reference") 0
        (Runner.failures ~reference:(Workload.digest_of reference) [ Some digest ]);
      (* one flipped omega bit in the reference must make the check fire *)
      let t, _ = List.hd reference in
      let omega = t.Mcdft_core.Pipeline.matrix.Testability.Matrix.omega in
      omega.(0).(0) <- Float.succ omega.(0).(0);
      Alcotest.(check int) (w.name ^ " corrupted reference") 1
        (Runner.failures ~reference:(Workload.digest_of reference) [ Some digest ]);
      Alcotest.(check int) (w.name ^ " raised unit") 1
        (Runner.failures ~reference:digest [ Some digest; None ]))
    Workload.all

let () =
  Alcotest.run "benchsuite"
    [
      ( "spans",
        [
          Alcotest.test_case "self times" `Quick test_self_times;
          Alcotest.test_case "attribution and remainder" `Quick test_attribution;
        ] );
      ("stats", [ Alcotest.test_case "median and quartiles" `Quick test_stats ]);
      ("host", [ Alcotest.test_case "factor and correction" `Quick test_host ]);
      ( "inputs",
        [
          Alcotest.test_case "same seed, same text" `Quick test_same_seed_same_text;
          Alcotest.test_case "seed 0 is the registry" `Quick test_seed0_is_registry;
          Alcotest.test_case "every input parses" `Quick test_inputs_parse;
        ] );
      ("smoke", [ Alcotest.test_case "all workloads, reference-checked" `Quick test_smoke ]);
    ]
