module Netlist = Circuit.Netlist
module Element = Circuit.Element

let parse_ok text =
  match Spice.Parser.parse_string text with
  | Ok n -> n
  | Error e -> Alcotest.fail (Spice.Parser.error_to_string e)

let parse_err text =
  match Spice.Parser.parse_string text with
  | Ok _ -> Alcotest.fail "expected parse error"
  | Error e -> e

let test_basic_parse () =
  let n =
    parse_ok
      "* RC lowpass\nV1 in 0 AC 1\nR1 in out 10k\nC1 out 0 100n\n.end\n"
  in
  Alcotest.(check string) "title" "RC lowpass" (Netlist.title n);
  Alcotest.(check int) "elements" 3 (Netlist.size n);
  match Netlist.find_exn n "R1" with
  | Element.Resistor { value; _ } -> Alcotest.(check (float 1e-9)) "10k" 1e4 value
  | _ -> Alcotest.fail "R1 wrong"

let test_title_always_first_line () =
  let n = parse_ok "this is the title\nR1 a 0 1k\n" in
  Alcotest.(check string) "title" "this is the title" (Netlist.title n);
  Alcotest.(check int) "one element" 1 (Netlist.size n)

let test_continuation_and_comments () =
  let n =
    parse_ok
      "title\n* a comment\nE1 out 0\n+ in 0\n+ 2.5 ; gain of 2.5\n\nR1 out 0 1k\n"
  in
  Alcotest.(check int) "two elements" 2 (Netlist.size n);
  match Netlist.find_exn n "E1" with
  | Element.Vcvs { gain; _ } -> Alcotest.(check (float 1e-9)) "gain" 2.5 gain
  | _ -> Alcotest.fail "E1 wrong"

let test_opamp_cards () =
  let n =
    parse_ok
      "title\nXOP a b c OPAMP\nOP2 a b d OPAMP A0=2e5 FP=5\nR1 c 0 1k\nR2 d 0 1k\nR3 a 0 1k\nR4 b 0 1k\n"
  in
  (match Netlist.find_exn n "XOP" with
  | Element.Opamp { model = Element.Ideal; _ } -> ()
  | _ -> Alcotest.fail "XOP should be ideal");
  match Netlist.find_exn n "OP2" with
  | Element.Opamp { model = Element.Single_pole { dc_gain; pole_hz }; _ } ->
      Alcotest.(check (float 0.0)) "A0" 2e5 dc_gain;
      Alcotest.(check (float 0.0)) "FP" 5.0 pole_hz
  | _ -> Alcotest.fail "OP2 should be single-pole"

let test_current_sources_and_sensing () =
  let n =
    parse_ok
      "t\nV1 a 0 AC 1\nV2 b 0 0\nI1 0 a 1m\nH1 c 0 V2 5k\nF1 d 0 V2 2\nR1 a b 1k\nR2 c 0 1k\nR3 d 0 1k\n"
  in
  Alcotest.(check int) "all parsed" 8 (Netlist.size n)

let test_bare_source_defaults_to_unit () =
  let n = parse_ok "t\nV1 a 0\nR1 a 0 1k\n" in
  match Netlist.find_exn n "V1" with
  | Element.Vsource { value; _ } -> Alcotest.(check (float 0.0)) "unit" 1.0 value
  | _ -> Alcotest.fail "V1 wrong"

let test_error_reporting () =
  let e = parse_err "t\nR1 in out\n" in
  Alcotest.(check int) "line number" 2 e.Spice.Parser.line;
  let e2 = parse_err "t\nQ1 a b c 1k\n" in
  Alcotest.(check bool) "unknown card" true
    (String.length e2.Spice.Parser.message > 0);
  let e3 = parse_err "t\nR1 in out zz\n" in
  Alcotest.(check int) "bad value line" 2 e3.Spice.Parser.line;
  let e4 = parse_err "t\n.weird\n" in
  Alcotest.(check int) "bad directive line" 2 e4.Spice.Parser.line

let test_duplicate_names_rejected () =
  let e = parse_err "t\nR1 a 0 1k\nR1 b 0 2k\n" in
  Alcotest.(check int) "second definition flagged" 3 e.Spice.Parser.line

let test_roundtrip_all_benchmarks () =
  List.iter
    (fun (b : Circuits.Benchmark.t) ->
      let text = Spice.Writer.to_string b.Circuits.Benchmark.netlist in
      let reparsed = parse_ok text in
      Alcotest.(check int)
        (b.Circuits.Benchmark.name ^ " element count")
        (Netlist.size b.Circuits.Benchmark.netlist)
        (Netlist.size reparsed);
      (* responses must agree, which checks values and wiring survived *)
      let w = 2.0 *. Float.pi *. b.Circuits.Benchmark.center_hz in
      let a =
        Mna.Ac.transfer ~source:b.Circuits.Benchmark.source
          ~output:b.Circuits.Benchmark.output b.Circuits.Benchmark.netlist ~omega:w
      in
      let r =
        Mna.Ac.transfer ~source:b.Circuits.Benchmark.source
          ~output:b.Circuits.Benchmark.output reparsed ~omega:w
      in
      Alcotest.(check (float 1e-6))
        (b.Circuits.Benchmark.name ^ " response")
        (Complex.norm a) (Complex.norm r))
    (Circuits.Registry.all ())

(* Writer then parser reproduces every element exactly — names (opamps
   included, whatever their leading letter), nodes and values bit for
   bit — on the registry and on every generator family. *)
let test_roundtrip_exact () =
  let check label netlist =
    let reparsed = parse_ok (Spice.Writer.to_string netlist) in
    Alcotest.(check (list string))
      (label ^ " element names")
      (List.map Element.name (Netlist.elements netlist))
      (List.map Element.name (Netlist.elements reparsed));
    Alcotest.(check bool)
      (label ^ " elements identical")
      true
      (Netlist.elements netlist = Netlist.elements reparsed)
  in
  List.iter
    (fun (b : Circuits.Benchmark.t) ->
      check b.Circuits.Benchmark.name b.Circuits.Benchmark.netlist)
    (Circuits.Registry.all ());
  List.iter
    (fun family ->
      for seed = 0 to 4 do
        let s = Conformance.Gen.generate family ~seed in
        check s.Conformance.Gen.label s.Conformance.Gen.netlist
      done)
    Conformance.Gen.all_families

let test_parse_file () =
  let path = Filename.temp_file "mcdft" ".cir" in
  let oc = open_out path in
  output_string oc "file title\nR1 a 0 2.2k\n.end\n";
  close_out oc;
  let n = match Spice.Parser.parse_file path with
    | Ok n -> n
    | Error e -> Alcotest.fail (Spice.Parser.error_to_string e)
  in
  Sys.remove path;
  Alcotest.(check string) "title" "file title" (Netlist.title n);
  Alcotest.(check int) "one element" 1 (Netlist.size n)

let suite =
  [
    Alcotest.test_case "basic parse" `Quick test_basic_parse;
    Alcotest.test_case "title first line" `Quick test_title_always_first_line;
    Alcotest.test_case "continuation/comments" `Quick test_continuation_and_comments;
    Alcotest.test_case "opamp cards" `Quick test_opamp_cards;
    Alcotest.test_case "current sources" `Quick test_current_sources_and_sensing;
    Alcotest.test_case "bare source" `Quick test_bare_source_defaults_to_unit;
    Alcotest.test_case "error reporting" `Quick test_error_reporting;
    Alcotest.test_case "duplicate names" `Quick test_duplicate_names_rejected;
    Alcotest.test_case "roundtrip benchmarks" `Quick test_roundtrip_all_benchmarks;
    Alcotest.test_case "roundtrip exact on registry and generators" `Quick
      test_roundtrip_exact;
    Alcotest.test_case "parse file" `Quick test_parse_file;
  ]

(* --- subcircuits --- *)

let test_subckt_basic () =
  let n =
    parse_ok
      "t\n\
       .subckt DIV top out\n\
       R1 top out 1k\n\
       R2 out 0 1k\n\
       .ends\n\
       V1 in 0 AC 1\n\
       X1 in mid DIV\n\
       X2 mid o2 DIV\n"
  in
  (* two instances, two resistors each *)
  Alcotest.(check int) "five elements" 5 (Netlist.size n);
  Alcotest.(check bool) "prefixed names" true (Netlist.mem n "X1.R1" && Netlist.mem n "X2.R2");
  (* each DIV halves; loaded dividers give 0.4 then 0.5 of that *)
  let h = Mna.Ac.transfer ~source:"V1" ~output:"o2" n ~omega:0.0 in
  Alcotest.(check (float 1e-9)) "two loaded stages" 0.2 (Complex.norm h)

let test_subckt_with_opamp_and_nesting () =
  let text =
    "t\n\
     .subckt BUF vin vout\n\
     XOP vin vout vout OPAMP\n\
     .ends\n\
     .subckt STAGE a b\n\
     R1 a x 1k\n\
     C1 x 0 100n\n\
     XB x b BUF\n\
     .ends\n\
     V1 in 0 AC 1\n\
     XS1 in out STAGE\n"
  in
  let n = parse_ok text in
  Alcotest.(check int) "flattened" 4 (Netlist.size n);
  Alcotest.(check bool) "nested prefix" true (Netlist.mem n "XS1.XB.XOP");
  (* buffered RC: unity at DC *)
  let h = Mna.Ac.transfer ~source:"V1" ~output:"out" n ~omega:0.0 in
  Alcotest.(check (float 1e-9)) "unity dc" 1.0 (Complex.norm h)

let test_subckt_ground_is_global () =
  let n =
    parse_ok "t\n.subckt G a\nR1 a 0 1k\n.ends\nV1 in 0 AC 1\nX1 in G\n"
  in
  (* the subckt's "0" is the global ground, not "X1.0" *)
  match Netlist.find_exn n "X1.R1" with
  | Element.Resistor { n2; _ } -> Alcotest.(check string) "global ground" "0" n2
  | _ -> Alcotest.fail "wrong element"

let test_subckt_errors () =
  let e = parse_err "t\n.subckt D a b\nR1 a b 1k\n" in
  Alcotest.(check bool) "unterminated" true
    (String.length e.Spice.Parser.message > 0);
  let e2 = parse_err "t\n.subckt D a b\nR1 a b 1k\n.ends\nV1 in 0 1\nX1 in D\n" in
  Alcotest.(check int) "port mismatch line" 6 e2.Spice.Parser.line;
  let e3 =
    parse_err
      "t\n.subckt A p\nX1 p A\n.ends\nV1 in 0 1\nX1 in A\nR1 in 0 1k\n"
  in
  Alcotest.(check bool) "recursion caught" true
    (String.length e3.Spice.Parser.message > 0)

let test_subckt_faults_and_dft_flow () =
  (* the full pipeline runs on a flattened hierarchical design *)
  let text =
    "two-stage hierarchical filter\n\
     .subckt SK vin vout\n\
     R1 vin a 10k\n\
     R2 a b 10k\n\
     C1 a vout 31.8n\n\
     C2 b 0 7.96n\n\
     XOP b vout vout OPAMP\n\
     .ends\n\
     Vin in 0 AC 1\n\
     XA in mid SK\n\
     XB mid out SK\n"
  in
  let netlist = parse_ok text in
  Circuit.Validate.check_exn netlist;
  let b =
    {
      Circuits.Benchmark.name = "hier-sk";
      description = "hierarchical Sallen-Key pair";
      netlist;
      source = "Vin";
      output = "out";
      center_hz = 500.0;
    }
  in
  let t = Mcdft_core.Pipeline.run ~points_per_decade:6 b in
  let r = Mcdft_core.Pipeline.optimize t in
  Alcotest.(check int) "8 hierarchical faults" 8
    (Testability.Matrix.n_faults t.Mcdft_core.Pipeline.matrix);
  Alcotest.(check bool) "optimizer ran" true
    (r.Mcdft_core.Optimizer.max_coverage > 0.0)

let suite =
  suite
  @ [
      Alcotest.test_case "subckt basic" `Quick test_subckt_basic;
      Alcotest.test_case "subckt nesting" `Quick test_subckt_with_opamp_and_nesting;
      Alcotest.test_case "subckt global ground" `Quick test_subckt_ground_is_global;
      Alcotest.test_case "subckt errors" `Quick test_subckt_errors;
      Alcotest.test_case "subckt full flow" `Quick test_subckt_faults_and_dft_flow;
    ]
