(* Interval-certification benchmarks: what does the static pass
   prove, and what does it cost on its own?

   Each row certifies every test-configuration view of a circuit under
   the paper's fixed ε = 0.1 on the campaign grid and reports the
   proved cell/point fractions, the views gated out and the pass's
   wall-clock. Campaigns do not consume the certificates — adaptive
   refinement already skips most far-from-boundary points, and one
   symbolic Bareiss elimination per (view × fault) cell costs more than
   the warmed solves it could replace — so there is no campaign column
   here: the proof is the product (`mcdft certify`, lint F002/P002),
   and this bench measures exactly that product. The bigladder row is
   gated out entirely by the max_dim cap (symbolic elimination at MNA
   dimension in the hundreds is hopeless), so its proved counts are
   honest zeros. *)

module C = Analysis.Certify

type row = {
  circuit : string;
  points_per_decade : int;
  n_views : int;
  n_faults : int;
  cells : int;
  cells_proved : int;
  points : int;
  points_proved : int;
  skipped_views : int;
  seconds : float;
}

let eps = 0.10

let registry name =
  match Circuits.Registry.find name with
  | Some b -> b
  | None -> failwith ("bench certify: missing benchmark " ^ name)

(* Same deterministic construction as the sparse bench: the seed array
   keys the value draws off the stage count. *)
let bigladder ~stages =
  let netlist, output =
    Conformance.Gen.bigladder ~stages (Random.State.make [| 0x5bad; stages |])
  in
  {
    Circuits.Benchmark.name = Printf.sprintf "bigladder-%d" stages;
    description = "big RC double ladder (certification gate check)";
    netlist;
    source = "V1";
    output;
    center_hz = 10_000.0;
  }

let row ~ppd ?faults (b : Circuits.Benchmark.t) =
  let netlist = b.Circuits.Benchmark.netlist in
  let source = b.Circuits.Benchmark.source
  and output = b.Circuits.Benchmark.output in
  let faults =
    match faults with Some f -> f | None -> Fault.deviation_faults netlist
  in
  let dft = Multiconfig.Transform.make ~source ~output netlist in
  let specs =
    List.map
      (fun config ->
        {
          C.label = Multiconfig.Configuration.label config;
          netlist = Multiconfig.Transform.emulate dft config;
          source;
          output;
        })
      (Multiconfig.Transform.test_configurations dft)
  in
  let freqs_hz =
    Testability.Grid.freqs_hz
      (Testability.Grid.around ~points_per_decade:ppd
         ~center_hz:b.Circuits.Benchmark.center_hz ())
  in
  let certify () = C.certify ~eps ~freqs_hz specs faults in
  (* warm-up settles allocator pages, as in the campaign bench *)
  ignore (certify ());
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  let c = certify () in
  let seconds = Unix.gettimeofday () -. t0 in
  let stats = c.C.stats in
  {
    circuit = b.Circuits.Benchmark.name;
    points_per_decade = ppd;
    n_views = List.length specs;
    n_faults = List.length faults;
    cells = stats.C.cells;
    cells_proved = stats.C.cells_proved;
    points = stats.C.points;
    points_proved = stats.C.points_proved;
    skipped_views = stats.C.skipped_views;
    seconds;
  }

let rows ~smoke () =
  if smoke then
    [
      row ~ppd:10 (registry "tow-thomas");
      row ~ppd:6 (registry "leapfrog5");
      (let b = bigladder ~stages:40 in
       row ~ppd:4
         ~faults:
           (List.filteri
              (fun i _ -> i mod 5 = 0)
              (Fault.deviation_faults b.Circuits.Benchmark.netlist))
         b);
    ]
  else
    [
      row ~ppd:30 (registry "tow-thomas");
      row ~ppd:10 (registry "leapfrog5");
      (let b = bigladder ~stages:100 in
       row ~ppd:6
         ~faults:
           (List.filteri
              (fun i _ -> i mod 5 = 0)
              (Fault.deviation_faults b.Circuits.Benchmark.netlist))
         b);
    ]

let to_json rows =
  [
    ( "certify",
      Report.Json.Object
        (List.map
           (fun r ->
             ( r.circuit,
               Report.Json.Object
                 [
                   ("points_per_decade", Report.Json.int r.points_per_decade);
                   ("n_views", Report.Json.int r.n_views);
                   ("n_faults", Report.Json.int r.n_faults);
                   ("cells", Report.Json.int r.cells);
                   ("cells_proved", Report.Json.int r.cells_proved);
                   ( "proved_cell_fraction",
                     Report.Json.Number
                       (if r.cells = 0 then 0.0
                        else float_of_int r.cells_proved /. float_of_int r.cells)
                   );
                   ("points", Report.Json.int r.points);
                   ("points_proved", Report.Json.int r.points_proved);
                   ( "proved_point_fraction",
                     Report.Json.Number
                       (if r.points = 0 then 0.0
                        else
                          float_of_int r.points_proved /. float_of_int r.points)
                   );
                   ("skipped_views", Report.Json.int r.skipped_views);
                   ("certify_seconds", Report.Json.Number r.seconds);
                 ] ))
           rows) );
  ]

let print_rows rows =
  print_endline
    "\n==== CERTIFY: interval-certified verdicts (fixed eps = 0.1) ====\n";
  let header =
    [
      "circuit"; "ppd"; "views"; "faults"; "cells proved"; "points proved";
      "gated views"; "certify (s)";
    ]
  in
  print_endline
    (Report.Table.render ~header
       (List.map
          (fun r ->
            [
              r.circuit;
              string_of_int r.points_per_decade;
              string_of_int r.n_views;
              string_of_int r.n_faults;
              Printf.sprintf "%d/%d" r.cells_proved r.cells;
              (if r.points = 0 then "0/0"
               else
                 Printf.sprintf "%d/%d (%.1f%%)" r.points_proved r.points
                   (100.0 *. float_of_int r.points_proved
                   /. float_of_int r.points));
              string_of_int r.skipped_views;
              Printf.sprintf "%.3f" r.seconds;
            ])
          rows));
  print_endline
    "  (the pass alone, over every test configuration; the gated\n\
    \   bigladder row keeps its zeros honest)"

let all ~smoke () =
  let r = rows ~smoke () in
  print_rows r;
  r
