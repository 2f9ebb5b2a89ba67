(* The static-analysis engine: structural rank, lint findings and the
   structural-vs-numeric singularity property. *)

module Netlist = Circuit.Netlist
module Validate = Circuit.Validate
module Finding = Analysis.Finding
module Structural = Analysis.Structural
module Lint = Analysis.Lint

(* the same netlists as test/fixtures/*.cir, inline so the suite does
   not depend on data-file plumbing *)
let vloop_cir =
  "Voltage-source loop: V1 and V2 in parallel between in and ground\n\
   V1 in 0 AC 1\n\
   V2 in 0 AC 1\n\
   R1 in out 10k\n\
   R2 out 0 10k\n\
   .end\n"

let broken_chain_cir =
  "Broken test-input chain: opamps declared against signal order\n\
   Vin in 0 AC 1\n\
   R1 in m1 15.9k\n\
   C1 m1 v1 10n\n\
   R4 v1 m2 15.9k\n\
   C2 m2 v2 10n\n\
   XOP2 0 m2 v2 OPAMP\n\
   XOP1 0 m1 v1 OPAMP\n\
   .end\n"

let parse_with_lines text =
  let path = Filename.temp_file "mcdft_lint" ".cir" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc text);
      match Spice.Parser.parse_file_with_lines path with
      | Ok r -> r
      | Error e -> Alcotest.failf "parse failed: %s" (Spice.Parser.error_to_string e))

(* ---- structural rank ---- *)

let test_structural_vloop () =
  let netlist, _ = parse_with_lines vloop_cir in
  let s = Structural.analyse netlist in
  Alcotest.(check bool) "singular" true (Structural.is_singular s);
  match s.Structural.generic with
  | None -> Alcotest.fail "expected a generic deficiency"
  | Some d ->
      Alcotest.(check int) "rank" 3 d.Structural.rank;
      Alcotest.(check int) "size" 4 d.Structural.size;
      Alcotest.(check int) "2 violator equations" 2 (List.length d.Structural.equations);
      Alcotest.(check int) "1 constrained unknown" 1 (List.length d.Structural.unknowns)

let test_structural_dc_only () =
  (* an ideal inverting integrator: solvable at every omega > 0 but the
     output voltage column vanishes from the DC pattern *)
  let netlist =
    Netlist.empty ~title:"integrator" ()
    |> Netlist.vsource ~name:"V1" "in" "0" 1.0
    |> Netlist.resistor ~name:"R1" "in" "x" 10_000.0
    |> Netlist.capacitor ~name:"C1" "x" "out" 1e-8
    |> Netlist.opamp ~name:"OP1" ~inp:"0" ~inn:"x" ~out:"out"
  in
  let s = Structural.analyse netlist in
  Alcotest.(check bool) "not singular" false (Structural.is_singular s);
  Alcotest.(check bool) "generic full rank" true (s.Structural.generic = None);
  Alcotest.(check bool) "hf full rank" true (s.Structural.hf = None);
  match s.Structural.dc with
  | None -> Alcotest.fail "expected a DC deficiency"
  | Some d -> Alcotest.(check bool) "regime" true (d.Structural.regime = Structural.Dc)

let test_structural_hf_floating () =
  let netlist =
    Netlist.empty ~title:"inductor island" ()
    |> Netlist.vsource ~name:"V1" "in" "0" 1.0
    |> Netlist.resistor ~name:"R1" "in" "a" 1_000.0
    |> Netlist.inductor ~name:"L1" "a" "x" 1e-3
    |> Netlist.inductor ~name:"L2" "x" "0" 1e-3
  in
  let s = Structural.analyse netlist in
  Alcotest.(check bool) "generic full rank" true (s.Structural.generic = None);
  Alcotest.(check (list string)) "x floats at HF" [ "x" ] s.Structural.hf_floating

(* ---- new validation checks ---- *)

let test_validate_dangling () =
  let netlist =
    Netlist.empty ()
    |> Netlist.vsource ~name:"V1" "in" "0" 1.0
    |> Netlist.resistor ~name:"R1" "in" "m" 1_000.0
    |> Netlist.resistor ~name:"R2" "m" "0" 1_000.0
    |> Netlist.resistor ~name:"R3" "m" "x" 1_000.0
  in
  (match Validate.check netlist with
  | Error [ Validate.Dangling_node { node = "x"; element = "R3" } ] -> ()
  | Error issues ->
      Alcotest.failf "unexpected issues: %s"
        (String.concat "; " (List.map Validate.issue_to_string issues))
  | Ok () -> Alcotest.fail "expected a dangling-node warning");
  (* a warning alone must not stop solver pipelines *)
  Validate.check_exn netlist

let test_validate_drive_conflict () =
  let netlist =
    Netlist.empty ()
    |> Netlist.vsource ~name:"V1" "in" "0" 1.0
    |> Netlist.vsource ~name:"V2" "o" "0" 1.0
    |> Netlist.resistor ~name:"R1" "in" "x" 1_000.0
    |> Netlist.resistor ~name:"R2" "x" "o" 1_000.0
    |> Netlist.opamp ~name:"OP1" ~inp:"0" ~inn:"x" ~out:"o"
  in
  (match Validate.check netlist with
  | Error issues ->
      Alcotest.(check bool) "conflict reported" true
        (List.exists
           (function
             | Validate.Opamp_drive_conflict { opamp = "OP1"; vsource = "V2" } -> true
             | _ -> false)
           issues)
  | Ok () -> Alcotest.fail "expected a drive conflict");
  match Validate.check_exn netlist with
  | () -> Alcotest.fail "check_exn must raise on an error-severity issue"
  | exception Invalid_argument _ -> ()

(* ---- parser line table ---- *)

let test_parser_line_table () =
  let text =
    "title line\n\
     V1 in 0 AC 1\n\
     R1 in out\n\
     + 10k\n\
     .subckt DIV a b\n\
     RA a mid 1k\n\
     RB mid b 1k\n\
     .ends\n\
     Xd out 0 DIV\n\
     .end\n"
  in
  let _, lines = parse_with_lines text in
  Alcotest.(check (option int)) "V1 line" (Some 2) (List.assoc_opt "V1" lines);
  Alcotest.(check (option int)) "continued R1 maps to opening line" (Some 3)
    (List.assoc_opt "R1" lines);
  Alcotest.(check (option int)) "flattened Xd.RA keeps its body line" (Some 6)
    (List.assoc_opt "Xd.RA" lines);
  Alcotest.(check (option int)) "flattened Xd.RB keeps its body line" (Some 7)
    (List.assoc_opt "Xd.RB" lines)

(* ---- lint golden tests ---- *)

let test_lint_vloop () =
  let netlist, lines = parse_with_lines vloop_cir in
  let src = { Lint.file = "vloop.cir"; lines } in
  let findings = Lint.run ~src netlist in
  let errors = Finding.errors findings in
  Alcotest.(check int) "one error" 1 (List.length errors);
  let e = List.hd errors in
  Alcotest.(check string) "code" "S001" e.Finding.code;
  (match e.Finding.loc with
  | Some { Finding.file = "vloop.cir"; line = 2 } -> ()
  | _ -> Alcotest.fail "expected vloop.cir:2 location");
  let rendered = Finding.to_string e in
  Alcotest.(check bool) "rendered with file:line" true
    (String.length rendered > 12 && String.sub rendered 0 12 = "vloop.cir:2:")

let test_lint_broken_chain () =
  let netlist, lines = parse_with_lines broken_chain_cir in
  let src = { Lint.file = "broken_chain.cir"; lines } in
  let findings = Lint.run ~src ~source:"Vin" ~output:"v2" netlist in
  Alcotest.(check int) "no errors" 0 (List.length (Finding.errors findings));
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec scan i = i + nn <= nh && (String.sub hay i nn = needle || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "C003 names configuration C2" true
    (List.exists
       (fun f ->
         f.Finding.code = "C003"
         && f.Finding.severity = Finding.Warning
         && f.Finding.config = Some "configuration C2")
       findings);
  Alcotest.(check bool) "message mentions input and output" true
    (List.exists
       (fun f ->
         f.Finding.code = "C003" && contains f.Finding.message "v2"
         && contains f.Finding.message "in")
       findings)

let test_lint_registry_clean () =
  List.iter
    (fun (b : Circuits.Benchmark.t) ->
      let findings =
        Lint.run ~source:b.Circuits.Benchmark.source ~output:b.Circuits.Benchmark.output
          b.Circuits.Benchmark.netlist
      in
      Alcotest.(check int)
        (b.Circuits.Benchmark.name ^ " lints without errors")
        0
        (List.length (Finding.errors findings)))
    (Circuits.Registry.all ())

(* ---- detectability pre-pass ---- *)

let test_detectability_consistency () =
  let b = Option.get (Circuits.Registry.find "tow-thomas") in
  let dft =
    Multiconfig.Transform.make ~source:b.Circuits.Benchmark.source
      ~output:b.Circuits.Benchmark.output b.Circuits.Benchmark.netlist
  in
  let det = Analysis.Detectability.analyse dft in
  let configs = Array.length det.Analysis.Detectability.configs in
  let faults = det.Analysis.Detectability.faults in
  let skips =
    Array.fold_left
      (fun acc row ->
        Array.fold_left (fun acc u -> if u then acc + 1 else acc) acc row)
      0 det.Analysis.Detectability.undetectable
  in
  Alcotest.(check int) "skip_count = undetectable entries" skips
    (Analysis.Detectability.skip_count det);
  Alcotest.(check int) "total_pairs = configurations x faults"
    (configs * Array.length faults)
    (Analysis.Detectability.total_pairs det);
  Alcotest.(check int) "one influence set per configuration" configs
    (List.length det.Analysis.Detectability.influential);
  (* a pair is skipped exactly when its element cannot influence the
     output of that configuration *)
  Array.iteri
    (fun i config ->
      let influential =
        List.assoc (Multiconfig.Configuration.index config)
          det.Analysis.Detectability.influential
      in
      Array.iteri
        (fun j (f : Fault.t) ->
          Alcotest.(check bool)
            (Printf.sprintf "C%d/%s skipped iff not influential"
               (Multiconfig.Configuration.index config) f.Fault.id)
            (not (List.mem f.Fault.element influential))
            det.Analysis.Detectability.undetectable.(i).(j))
        faults)
    det.Analysis.Detectability.configs;
  Alcotest.(check bool) "pruning is non-trivial" true
    (Analysis.Detectability.skip_count det > 0);
  Alcotest.(check int) "every fault detectable somewhere" 0
    (List.length (Analysis.Detectability.undetectable_everywhere det))

(* ---- structural verdict vs numeric LU ---- *)

(* A random connected soup — ladder + optional bridge + at most one
   opamp/source hazard. The generator lives in Conformance.Gen (the
   fuzzer's Soup family); see its doc for why at most ONE opamp is
   allowed in the hazard set. *)
let random_soup ~seed = (Conformance.Gen.generate Conformance.Gen.Soup ~seed).netlist

let numerically_solvable netlist ~omega =
  let module F = (val Mna.Field.complex ~omega) in
  let module AC = Mna.Assemble.Make (F) in
  let index = Mna.Index.build netlist in
  let { AC.matrix; _ } = AC.assemble index netlist in
  match Linalg.Cmat.lu_factor (Linalg.Cmat.of_arrays matrix) with
  | _ -> true
  | exception Linalg.Cmat.Singular -> false

let gen_seed = QCheck.make QCheck.Gen.(int_bound 1_000_000)

let qcheck_structural_sound =
  QCheck.Test.make ~name:"structural singular => LU Singular; full rank => solvable"
    ~count:200 gen_seed (fun seed ->
      let rng = Random.State.make [| seed |] in
      let netlist = random_soup ~seed in
      let omega = 2.0 *. Float.pi *. (10.0 ** QCheck.Gen.float_range 1.0 5.0 rng) in
      let verdict = Structural.is_singular (Structural.analyse netlist) in
      let solvable = numerically_solvable netlist ~omega in
      if verdict then not solvable else solvable)


(* ---- the class key against its dense reference ----

   [dense_signature] is the n×n scan the stamp-run key
   ({!Mna.Stamps.signature}) replaced, kept here as the reference: the
   key must produce the same bytes on every key a campaign or the lint
   computes. *)

module PA = Mna.Assemble.Make (Mna.Field.Polynomial)
module Poly = Linalg.Poly

let row_occupancy ~sources index netlist =
  List.map
    (fun e ->
      let rows = Hashtbl.create 8 in
      let touch = function Some i -> Hashtbl.replace rows i () | None -> () in
      PA.stamp_element ~sources
        ~add_m:(fun i _ _ -> touch i)
        ~add_b:(fun i _ -> touch i)
        index e;
      ( Circuit.Element.name e,
        Hashtbl.fold (fun i () acc -> i :: acc) rows [] |> List.sort compare ))
    (Netlist.elements netlist)

let dense_signature ~sources ~locked_elements view =
  let index = Mna.Index.build view in
  let n = Mna.Index.size index in
  let { PA.matrix; rhs } = PA.assemble ~sources index view in
  let locked = Array.make n false in
  if locked_elements <> [] then
    List.iter
      (fun (name, rows) ->
        if List.mem name locked_elements then
          List.iter (fun i -> locked.(i) <- true) rows)
      (row_occupancy ~sources index view);
  let lowest_nonzero p =
    let rec go k =
      if k > Poly.degree p then 0.0
      else
        let c = Poly.coeff p k in
        if c <> 0.0 then c else go (k + 1)
    in
    go 0
  in
  let row_sign i =
    if locked.(i) then 1.0
    else begin
      let rec first j =
        if j >= n then lowest_nonzero rhs.(i)
        else
          let c = lowest_nonzero matrix.(i).(j) in
          if c <> 0.0 then c else first (j + 1)
      in
      let c = first 0 in
      if c < 0.0 then -1.0 else 1.0
    end
  in
  (* Binary tokens, each a tag byte and a fixed-width payload, so the
     encoding decodes one way and equal strings mean equal systems:
     'R'/'L' opens row i (locked or not; i is the count of rows
     opened), 'E' j an entry in column j, 'B' the excitation entry, and
     'C' k bits one nonzero coefficient of s^k. *)
  let buf = Buffer.create (32 * n) in
  let add_int k = Buffer.add_int32_le buf (Int32.of_int k) in
  let add_poly sigma p =
    for k = 0 to Poly.degree p do
      let c = Poly.coeff p k in
      if c <> 0.0 then begin
        Buffer.add_char buf 'C';
        add_int k;
        Buffer.add_int64_le buf (Int64.bits_of_float (sigma *. c))
      end
    done
  in
  for i = 0 to n - 1 do
    let sigma = row_sign i in
    Buffer.add_char buf (if locked.(i) then 'L' else 'R');
    for j = 0 to n - 1 do
      if not (Poly.is_zero matrix.(i).(j)) then begin
        Buffer.add_char buf 'E';
        add_int j;
        add_poly sigma matrix.(i).(j)
      end
    done;
    if not (Poly.is_zero rhs.(i)) then begin
      Buffer.add_char buf 'B';
      add_poly sigma rhs.(i)
    end
  done;
  Buffer.contents buf

(* Every key the campaign's grouping computes, and the lint's: each
   registry circuit's test views (and a bigladder-40's) under the
   deviation and catastrophic fault lists, on the cone netlist and the
   whole view, under [Only source] and [Nominal]. A live view's class
   key ({!Testability.Detect.class_key}), read from its structure's own
   stamp run, opens with the first case's bytes. *)
let test_signature_matches_dense () =
  let bigladder =
    let netlist, output =
      Conformance.Gen.bigladder ~stages:40 (Random.State.make [| 0x5bad; 40 |])
    in
    {
      Circuits.Benchmark.name = "bigladder-40";
      description = "";
      netlist;
      source = "V1";
      output;
      center_hz = 10_000.0;
    }
  in
  let compared = ref 0 in
  List.iter
    (fun (b : Circuits.Benchmark.t) ->
      let netlist = b.Circuits.Benchmark.netlist in
      let dft =
        Multiconfig.Transform.make ~source:b.Circuits.Benchmark.source
          ~output:b.Circuits.Benchmark.output netlist
      in
      let probe =
        {
          Testability.Detect.source = b.Circuits.Benchmark.source;
          output = b.Circuits.Benchmark.output;
        }
      in
      List.iter
        (fun faults ->
          let locked_elements =
            List.sort_uniq String.compare (List.map (fun f -> f.Fault.element) faults)
          in
          List.iter
            (fun config ->
              let view = Multiconfig.Transform.emulate dft config in
              let s = Testability.Detect.structure ~faults probe view in
              let cone = Testability.Detect.engine_netlist s in
              let only = Mna.Assemble.Only probe.Testability.Detect.source in
              let label =
                Printf.sprintf "%s %s" b.Circuits.Benchmark.name
                  (Multiconfig.Configuration.label config)
              in
              let locked name = List.mem name locked_elements in
              if Testability.Detect.engine_dim s > 0 then begin
                let dense = dense_signature ~sources:only ~locked_elements cone in
                let prefix = string_of_int (String.length dense) ^ ":" ^ dense in
                Alcotest.(check bool)
                  (label ^ ": class key")
                  true
                  (String.starts_with ~prefix (Testability.Detect.class_key ~locked s))
              end;
              List.iter
                (fun (sources, locked_elements, net) ->
                  incr compared;
                  Alcotest.(check string)
                    label
                    (dense_signature ~sources ~locked_elements net)
                    (Mna.Stamps.signature (Mna.Stamps.build_sparse ~sources net)
                       ~locked:(fun name -> List.mem name locked_elements)))
                [
                  (only, locked_elements, cone);
                  (only, locked_elements, view);
                  (Mna.Assemble.Nominal, [], view);
                  (Mna.Assemble.Nominal, locked_elements, cone);
                ])
            (Multiconfig.Transform.test_configurations dft))
        [ Fault.deviation_faults netlist; Fault.catastrophic_faults netlist ])
    (Circuits.Registry.all () @ [ bigladder ]);
  Alcotest.(check bool) "keys compared" true (!compared > 2000)

let suite =
  [
    Alcotest.test_case "structural: V loop" `Quick test_structural_vloop;
    Alcotest.test_case "structural: DC-only deficiency" `Quick test_structural_dc_only;
    Alcotest.test_case "structural: HF floating node" `Quick test_structural_hf_floating;
    Alcotest.test_case "validate: dangling node" `Quick test_validate_dangling;
    Alcotest.test_case "validate: opamp drive conflict" `Quick test_validate_drive_conflict;
    Alcotest.test_case "parser: line table" `Quick test_parser_line_table;
    Alcotest.test_case "lint: V loop golden" `Quick test_lint_vloop;
    Alcotest.test_case "lint: broken chain golden" `Quick test_lint_broken_chain;
    Alcotest.test_case "lint: registry circuits are clean" `Quick test_lint_registry_clean;
    Alcotest.test_case "detectability: prefilter consistency" `Quick
      test_detectability_consistency;
    QCheck_alcotest.to_alcotest qcheck_structural_sound;
    Alcotest.test_case "value_signature: equal to the dense key" `Quick
      test_signature_matches_dense;
  ]
