(* Interval-certified detectability: invariants of Analysis.Certify's
   verdict cube and regions, the report Pipeline.run attaches on
   request, and the `mcdft certify` surface. Soundness against the
   numeric engine — every proved byte equals the exhaustive per-point
   verdict — is the certify-soundness conformance oracle's job. *)

open Testability
module P = Mcdft_core.Pipeline
module C = Analysis.Certify

let benchmark name =
  match Circuits.Registry.find name with
  | Some b -> b
  | None -> Alcotest.failf "missing benchmark %s" name

let eps = 0.10
let criterion = Detect.Fixed_tolerance eps

(* ---- criterion scoping: only Fixed_tolerance is certifiable ---- *)

let test_criterion_scope () =
  let b = benchmark "sallen-key-lp" in
  let envelope = P.run ~points_per_decade:6 ~certify:true b in
  Alcotest.(check bool) "default envelope criterion: no certification" true
    (envelope.P.certify = None);
  let fixed = P.run ~criterion ~points_per_decade:6 ~certify:true b in
  Alcotest.(check bool) "fixed criterion: certification present" true
    (fixed.P.certify <> None);
  let default = P.run ~criterion ~points_per_decade:6 b in
  Alcotest.(check bool) "campaigns do not certify by default" true
    (default.P.certify = None)

(* ---- verdict cube invariants ---- *)

let test_cube_invariants () =
  let b = benchmark "tow-thomas" in
  let t = P.run ~criterion ~points_per_decade:10 ~certify:true b in
  match t.P.certify with
  | None -> Alcotest.fail "expected a certification"
  | Some c ->
      let s = c.C.stats in
      Alcotest.(check bool) "proved <= total points" true
        (s.C.points_proved <= s.C.points);
      Alcotest.(check bool) "cells proved <= cells" true
        (s.C.cells_proved <= s.C.cells);
      let cube = C.verdict_cube c in
      Array.iteri
        (fun i row ->
          Array.iter
            (function
              | None -> ()
              | Some v ->
                  Alcotest.(check bool) "cube row length = grid" true
                    (Bytes.length v = c.C.n_points);
                  Alcotest.(check bool) "cube only on validated views" true
                    c.C.views.(i).C.validated;
                  Bytes.iter
                    (fun byte ->
                      Alcotest.(check bool) "cube byte is a verdict's byte" true
                        (List.mem byte
                           (List.map C.byte_of_verdict
                              [ C.Certified_detectable; C.Certified_undetectable; C.Unknown ])))
                    v)
            row)
        cube

let test_eps_validation () =
  Alcotest.check_raises "eps = 0 rejected"
    (Invalid_argument "Certify.certify: eps must be positive") (fun () ->
      ignore (C.certify ~eps:0.0 ~freqs_hz:[| 1.0 |] [] []))

(* ---- regions tile the grid and agree with the point verdicts ---- *)

let test_regions_cover_grid () =
  let b = benchmark "tow-thomas" in
  let grid = Grid.around ~points_per_decade:10 ~center_hz:1000.0 () in
  let freqs_hz = Grid.freqs_hz grid in
  let spec =
    {
      C.label = "C0";
      netlist = b.Circuits.Benchmark.netlist;
      source = b.Circuits.Benchmark.source;
      output = b.Circuits.Benchmark.output;
    }
  in
  let faults = [ Fault.deviation ~element:"R1" 1.2 ] in
  let c = C.certify ~eps ~freqs_hz [ spec ] faults in
  Array.iter
    (fun (v : C.view_result) ->
      Array.iter
        (fun (cell : C.cell) ->
          Array.iteri
            (fun k f ->
              let l = log10 f in
              (* the point verdict is the first containing leaf's, and
                 the leaves tile the whole (slightly widened) range *)
              match
                List.find_opt
                  (fun (r : C.region) -> Util.Interval.contains r.C.band l)
                  cell.C.regions
              with
              | None -> Alcotest.failf "grid point %g Hz not covered by a region" f
              | Some r ->
                  Alcotest.(check bool) "region verdict matches point byte" true
                    (C.byte_of_verdict r.C.verdict = Bytes.get cell.C.verdicts k))
            freqs_hz)
        v.C.cells)
      c.C.views

(* ---- CLI surface ---- *)

let test_cli_certify () =
  Alcotest.(check int) "certify runs" 0 (Cli.exit_code "certify tow-thomas");
  Alcotest.(check int) "certify --json runs" 0 (Cli.exit_code "certify tow-thomas --json");
  Alcotest.(check int) "non-fixed criterion refused" 1
    (Cli.exit_code "certify tow-thomas --criterion envelope:0.04:0.02")

(* ---- single parse per campaign invocation (pre-flight lint reuses
   the campaign's parse; the spice.parse counter proves it) ---- *)

let test_single_parse_per_invocation () =
  Cli.with_temp_dir "mcdft-parse" @@ fun dir ->
  let cir = Filename.concat dir "tt.cir" in
  let oc = open_out cir in
  output_string oc
    (Spice.Writer.to_string (benchmark "tow-thomas").Circuits.Benchmark.netlist);
  close_out oc;
  let metrics = Filename.concat dir "metrics.json" in
  Alcotest.(check int) "matrix on a file runs" 0
    (Cli.exit_code
       (Printf.sprintf
          "matrix %s --criterion fixed:0.1 --points-per-decade 4 --metrics %s"
          (Filename.quote cir) (Filename.quote metrics)));
  let ic = open_in metrics in
  let json = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Report.Json.of_string json with
  | Error msg -> Alcotest.failf "metrics JSON unreadable: %s" msg
  | Ok j -> (
      match Option.bind (Report.Json.member "counters" j) (Report.Json.member "spice.parse") with
      | Some (Report.Json.Number n) ->
          Alcotest.(check int) "exactly one parse" 1 (int_of_float n)
      | _ -> Alcotest.fail "spice.parse counter missing from metrics")

let suite =
  [
    Alcotest.test_case "criterion scope" `Quick test_criterion_scope;
    Alcotest.test_case "verdict cube invariants" `Quick test_cube_invariants;
    Alcotest.test_case "eps validation" `Quick test_eps_validation;
    Alcotest.test_case "regions cover the grid" `Quick test_regions_cover_grid;
    Alcotest.test_case "cli certify" `Quick test_cli_certify;
    Alcotest.test_case "single parse per invocation" `Quick
      test_single_parse_per_invocation;
  ]
