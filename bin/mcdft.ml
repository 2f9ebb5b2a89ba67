(* mcdft — multi-configuration DFT analysis for analog circuits.

   Subcommands:
     list                   the built-in benchmark circuits
     show     CIRCUIT       print the netlist in SPICE form
     lint     CIRCUIT       static analysis: validation, structural rank,
                            configuration-space diagnostics
     tf       CIRCUIT       symbolic transfer function, poles and zeros
     analyze  CIRCUIT       functional-configuration testability (Graph 1)
     matrix   CIRCUIT       detectability matrices over all configurations
     optimize CIRCUIT       the full ordered-requirements optimization
     fuzz                   differential conformance fuzzing of the engines

   CIRCUIT is either a benchmark name from `mcdft list` or a path to a
   SPICE netlist. *)

open Cmdliner

module O = Mcdft_core.Optimizer
module P = Mcdft_core.Pipeline
module IntSet = Cover.Clause.IntSet

(* ---- exit codes (documented in the man page footer) ----

     0  success
     1  circuit loading / invalid input
     3  singular MNA system (reached the solver anyway); a dead test
        configuration — its source cannot reach the output — builds no
        system, so a singular one is not an error: its row is all
        undetectable
     4  a fault references an element absent from the netlist
     5  I/O error
     6  lint findings of error severity
   (2 and 124/125 remain cmdliner's usage/internal errors.) *)

let die code fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "mcdft: %s\n" msg;
      exit code)
    fmt

(* ---- loading circuits ---- *)

let default_source netlist =
  List.find_map
    (function Circuit.Element.Vsource { name; _ } -> Some name | _ -> None)
    (Circuit.Netlist.elements netlist)

let default_output netlist =
  match List.rev (Circuit.Netlist.opamps netlist) with
  | Circuit.Element.Opamp { out; _ } :: _ -> Some out
  | _ -> None

(* [name] as a registry benchmark, or else as a SPICE file parsed with
   its source lines, and [source]/[output] defaulted from the benchmark
   or the netlist when not given. *)
let read_circuit name ~source ~output =
  match Circuits.Registry.find name with
  | Some b ->
      Ok
        ( `Benchmark b,
          Some (Option.value source ~default:b.Circuits.Benchmark.source),
          Some (Option.value output ~default:b.Circuits.Benchmark.output) )
  | None -> (
      if not (Sys.file_exists name) then
        Error
          (Printf.sprintf "%S is neither a benchmark (see `mcdft list`) nor a file" name)
      else
        match Spice.Parser.parse_file_with_lines name with
        | Error e -> Error (Printf.sprintf "%s: %s" name (Spice.Parser.error_to_string e))
        | Ok (netlist, lines) ->
            let given v default = match v with Some _ -> v | None -> default netlist in
            Ok
              ( `File (netlist, { Analysis.Lint.file = name; lines }),
                given source default_source,
                given output default_output ))

(* Why [source] and [output] cannot probe [netlist], if they cannot:
   the probe drives an independent source and observes a non-ground
   node. *)
let probe_error netlist ~source ~output =
  match Circuit.Netlist.find netlist source with
  | Some (Circuit.Element.Vsource _ | Circuit.Element.Isource _) ->
      if output = Circuit.Element.ground then Some "--output names the ground node"
      else if not (List.mem output (Circuit.Netlist.internal_nodes netlist)) then
        Some (Printf.sprintf "--output %S names no node of the netlist" output)
      else None
  | _ -> Some (Printf.sprintf "--source %S names no independent source of the netlist" source)

let load_circuit name ~source ~output =
  let flags_given = source <> None || output <> None in
  Result.bind (read_circuit name ~source ~output) @@ function
  | `Benchmark _, _, _ when flags_given ->
      Error
        (Printf.sprintf "%s is a benchmark: --source and --output apply to netlist files only"
           name)
  | `Benchmark b, _, _ -> Ok b
  | `File (netlist, src), source, output -> (
      (* pre-flight lint: catch structurally singular or invalid
         netlists here, with element/line diagnostics, instead of
         dying deep in the solver with a bare Singular *)
      (match Analysis.Finding.errors (Analysis.Lint.netlist_findings ~src netlist) with
      | [] -> ()
      | errors ->
          List.iter (fun f -> Printf.eprintf "%s\n" (Analysis.Finding.to_string f)) errors;
          die 6 "%s: %s — run `mcdft lint %s` for the full report" name
            (Analysis.Finding.summary errors) name);
      match (source, output) with
      | None, _ -> Error "no voltage source found; pass --source"
      | _, None -> Error "no opamp output found; pass --output"
      | Some source, Some output -> (
          match probe_error netlist ~source ~output with
          | Some msg -> Error (Printf.sprintf "%s: %s" name msg)
          | None ->
              Ok
                {
                  Circuits.Benchmark.name = Filename.basename name;
                  description = Circuit.Netlist.title netlist;
                  netlist;
                  source;
                  output;
                  center_hz = Mna.Symbolic.center_hz ~source ~output netlist;
                }))

let parse_one_criterion s =
  match String.split_on_char ':' (String.lowercase_ascii s) with
  | [ "fixed"; eps ] -> (
      match float_of_string_opt eps with
      | Some e when e > 0.0 -> Ok (Testability.Detect.Fixed_tolerance e)
      | _ -> Error (`Msg "fixed criterion needs a positive epsilon, e.g. fixed:0.1"))
  | [ "envelope"; tol; floor ] -> (
      match (float_of_string_opt tol, float_of_string_opt floor) with
      | Some t, Some f when t > 0.0 && f >= 0.0 ->
          Ok (Testability.Detect.Process_envelope { component_tol = t; floor = f })
      | _ -> Error (`Msg "envelope criterion needs tol and floor, e.g. envelope:0.04:0.02"))
  | [ "phase"; rad ] -> (
      match float_of_string_opt rad with
      | Some r when r > 0.0 -> Ok (Testability.Detect.Phase_fixed r)
      | _ -> Error (`Msg "phase criterion needs a positive angle in radians, e.g. phase:0.1"))
  | [ "phase-envelope"; tol; floor ] -> (
      match (float_of_string_opt tol, float_of_string_opt floor) with
      | Some t, Some f when t > 0.0 && f >= 0.0 ->
          Ok (Testability.Detect.Phase_envelope { component_tol = t; floor_rad = f })
      | _ ->
          Error (`Msg "phase-envelope needs tol and floor, e.g. phase-envelope:0.04:0.05"))
  | _ ->
      Error
        (`Msg
          "criterion must be fixed:EPS, envelope:TOL:FLOOR, phase:RAD or \
           phase-envelope:TOL:FLOOR (combine with ,)")

(* a comma-separated list is the union of criteria *)
let parse_criterion s =
  match String.split_on_char ',' s with
  | [ one ] -> parse_one_criterion one
  | many -> (
      let parsed = List.map parse_one_criterion many in
      match
        List.find_map (function Error e -> Some (Error e) | Ok _ -> None) parsed
      with
      | Some err -> err
      | None ->
          Ok
            (Testability.Detect.Any_of
               (List.filter_map (function Ok c -> Some c | Error _ -> None) parsed)))

let rec criterion_str = function
  | Testability.Detect.Fixed_tolerance e -> Printf.sprintf "fixed:%g" e
  | Testability.Detect.Process_envelope { component_tol; floor } ->
      Printf.sprintf "envelope:%g:%g" component_tol floor
  | Testability.Detect.Phase_fixed r -> Printf.sprintf "phase:%g" r
  | Testability.Detect.Phase_envelope { component_tol; floor_rad } ->
      Printf.sprintf "phase-envelope:%g:%g" component_tol floor_rad
  | Testability.Detect.Any_of l -> String.concat "," (List.map criterion_str l)

let criterion_conv =
  Arg.conv
    ( (fun s -> parse_criterion s),
      fun ppf c -> Format.fprintf ppf "%s" (criterion_str c) )

(* ---- common options ---- *)

let circuit_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"CIRCUIT"
         ~doc:"Benchmark name or SPICE netlist file.")

let source_opt =
  Arg.(value & opt (some string) None & info [ "source" ] ~docv:"NAME"
         ~doc:"Driving voltage source (files only; default: first V card).")

let output_opt =
  Arg.(value & opt (some string) None & info [ "output" ] ~docv:"NODE"
         ~doc:"Observed output node (files only; default: last opamp output).")

let criterion_opt =
  Arg.(value & opt criterion_conv P.default_criterion
       & info [ "criterion" ] ~docv:"CRIT"
           ~doc:"Detectability criterion: fixed:EPS, envelope:TOL:FLOOR, phase:RAD or \
                 phase-envelope:TOL:FLOOR; join several with $(b,,) for their \
                 union (detectable where any fires).")

let positive_int =
  Arg.conv
    ( (fun s ->
        match int_of_string_opt s with
        | Some n when n > 0 -> Ok n
        | _ -> Error (`Msg "expected a positive integer")),
      Format.pp_print_int )

let ppd_opt =
  Arg.(value & opt positive_int 30 & info [ "points-per-decade" ] ~docv:"N"
         ~doc:"Frequency grid density (positive).")

let jobs_opt =
  Arg.(value
       & opt positive_int (Domain.recommended_domain_count ())
       & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"Worker domains for the fault-simulation campaign \
                 (default: the recommended domain count for this machine).")

let fault_kind_opt =
  Arg.(value & opt (enum [ ("deviation", `Deviation); ("both", `Both); ("catastrophic", `Catastrophic) ])
         `Deviation
       & info [ "faults" ] ~docv:"KIND"
           ~doc:"Fault universe: deviation (+20%), both (±20%) or catastrophic.")

(* The coverage estimator needs a scalar magnitude threshold and a
   component spread; phase-only criteria expose neither. An envelope
   criterion contributes its floor — the tightest threshold it ever
   applies — so the estimate is a conservative lower bound there. *)
let rec coverage_params = function
  | Testability.Detect.Fixed_tolerance e ->
      (* fixed:EPS says nothing about component spread; assume the
         default envelope's ±4% *)
      Some (0.04, e)
  | Testability.Detect.Process_envelope { component_tol; floor } ->
      if floor > 0.0 then Some (component_tol, floor) else None
  | Testability.Detect.Phase_fixed _ | Testability.Detect.Phase_envelope _ ->
      None
  | Testability.Detect.Any_of l -> List.find_map coverage_params l

let faults_of kind netlist =
  match kind with
  | `Deviation -> Fault.deviation_faults netlist
  | `Both -> Fault.both_deviations netlist
  | `Catastrophic -> Fault.catastrophic_faults netlist

(* ---- one error handler for every subcommand ---- *)

let handle_errors f =
  try f () with
  | Mna.Ac.Singular_circuit msg | Mna.Symbolic.Singular_circuit msg ->
      die 3
        "singular circuit: %s\n\
         (the MNA system has no unique solution — look for floating nodes, a \
         shorted source, or a wrong --source/--output pair)"
        msg
  | Fault.Unknown_element name ->
      die 4
        "unknown element %S: no element with that name in the analyzed netlist\n\
         (catastrophic fault lists only cover passive components; check the \
         fault universe against the circuit)"
        name
  | Cover.Solver.Infeasible_cover tags ->
      die 1
        "infeasible covering problem: clause%s %s cannot be satisfied\n\
         (a fault demands more detecting configurations than exist; lower \
         --n-detect or drop the fault)"
        (if List.length tags = 1 then "" else "s")
        (String.concat ", " (List.map string_of_int tags))
  | Not_found ->
      die 4
        "a fault names an element absent from the analyzed netlist\n\
         (catastrophic fault lists only cover passive components; check the \
         fault universe against the circuit)"
  | Invalid_argument msg -> die 1 "invalid input: %s" msg
  | Sys_error msg -> die 5 "i/o error: %s" msg

let with_circuit name source output f =
  handle_errors (fun () ->
      match load_circuit name ~source ~output with
      | Error msg -> die 1 "%s" msg
      | Ok b -> f b)

(* ---- observability flags ---- *)

let metrics_opt =
  Arg.(value & opt (some string) None
       & info [ "metrics" ] ~docv:"FILE"
           ~doc:"Write campaign metrics (solver counters, phase-timing \
                 histograms, scheduler utilization) to $(docv) as JSON.")

let trace_opt =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write a Chrome-trace-format span timeline to $(docv); load it \
                 in chrome://tracing or https://ui.perfetto.dev.")

(* Enable the requested sinks, run, then write the files — also on the
   error path, so a failing campaign still leaves its partial trace. *)
let with_observability ~metrics ~trace f =
  if metrics <> None then Obs.Metrics.set_enabled true;
  if trace <> None then Obs.Trace.set_enabled true;
  let write_files () =
    Option.iter
      (fun path ->
        let json = Mcdft_core.Export.metrics_to_json (Obs.Metrics.snapshot ()) in
        let oc = open_out path in
        output_string oc (Report.Json.to_string ~indent:2 json);
        output_char oc '\n';
        close_out oc)
      metrics;
    Option.iter Obs.Trace.write trace
  in
  match f () with
  | v ->
      write_files ();
      v
  | exception e ->
      (* best effort: a failing campaign still leaves its partial
         trace, but the original error wins over a sink write error *)
      (try write_files () with _ -> ());
      raise e

(* ---- subcommands ---- *)

let list_cmd =
  let run () =
    handle_errors @@ fun () ->
    let rows =
      List.map
        (fun (b : Circuits.Benchmark.t) ->
          [
            b.Circuits.Benchmark.name;
            string_of_int (Circuits.Benchmark.opamp_count b);
            string_of_int (Circuits.Benchmark.passive_count b);
            Printf.sprintf "%g" b.Circuits.Benchmark.center_hz;
            b.Circuits.Benchmark.description;
          ])
        (Circuits.Registry.all ())
    in
    print_endline
      (Report.Table.render ~header:[ "name"; "opamps"; "passives"; "f0 (Hz)"; "description" ] rows)
  in
  Cmd.v (Cmd.info "list" ~doc:"List the built-in benchmark circuits")
    Term.(const run $ const ())

let show_cmd =
  let run name source output =
    with_circuit name source output (fun b ->
        print_string (Spice.Writer.to_string b.Circuits.Benchmark.netlist))
  in
  Cmd.v (Cmd.info "show" ~doc:"Print the circuit netlist in SPICE form")
    Term.(const run $ circuit_arg $ source_opt $ output_opt)

let lint_cmd =
  let json_of_finding (f : Analysis.Finding.t) =
    let opt key v = Option.to_list (Option.map (fun x -> (key, Report.Json.String x)) v) in
    Report.Json.Object
      ([
         ("code", Report.Json.String f.Analysis.Finding.code);
         ( "severity",
           Report.Json.String
             (Analysis.Finding.severity_to_string f.Analysis.Finding.severity) );
         ("message", Report.Json.String f.Analysis.Finding.message);
       ]
      @ opt "element" f.Analysis.Finding.element
      @ opt "node" f.Analysis.Finding.node
      @ opt "config" f.Analysis.Finding.config
      @
      match f.Analysis.Finding.loc with
      | None -> []
      | Some { Analysis.Finding.file; line } ->
          [ ("file", Report.Json.String file); ("line", Report.Json.int line) ])
  in
  (* SARIF 2.1.0 export — the static-analysis interchange format GitHub
     code scanning and most editors ingest. One run, one rule per
     distinct finding code, one result per finding; findings without a
     source location (benchmark lints) carry only the message. *)
  let sarif_of_findings ~circuit findings =
    let open Report.Json in
    let level = function
      | Analysis.Finding.Error -> "error"
      | Analysis.Finding.Warning -> "warning"
      | Analysis.Finding.Info -> "note"
    in
    let rules =
      List.sort_uniq compare
        (List.map (fun f -> f.Analysis.Finding.code) findings)
    in
    let result_of (f : Analysis.Finding.t) =
      let anchors =
        List.filter_map Fun.id
          [
            Option.map (fun e -> "element " ^ e) f.Analysis.Finding.element;
            Option.map (fun n -> "node " ^ n) f.Analysis.Finding.node;
            f.Analysis.Finding.config;
          ]
      in
      let text =
        match anchors with
        | [] -> f.Analysis.Finding.message
        | l -> f.Analysis.Finding.message ^ " (" ^ String.concat ", " l ^ ")"
      in
      Object
        ([
           ("ruleId", String f.Analysis.Finding.code);
           ("level", String (level f.Analysis.Finding.severity));
           ("message", Object [ ("text", String text) ]);
         ]
        @
        match f.Analysis.Finding.loc with
        | None -> []
        | Some { Analysis.Finding.file; line } ->
            [
              ( "locations",
                List
                  [
                    Object
                      [
                        ( "physicalLocation",
                          Object
                            [
                              ( "artifactLocation",
                                Object [ ("uri", String file) ] );
                              ( "region",
                                Object [ ("startLine", Report.Json.int line) ]
                              );
                            ] );
                      ];
                  ] );
            ])
    in
    Object
      [
        ("$schema", String "https://json.schemastore.org/sarif-2.1.0.json");
        ("version", String "2.1.0");
        ( "runs",
          List
            [
              Object
                [
                  ( "tool",
                    Object
                      [
                        ( "driver",
                          Object
                            [
                              ("name", String "mcdft-lint");
                              ("version", String "1.0.0");
                              ( "informationUri",
                                String
                                  "https://github.com/mcdft/mcdft#finding-codes"
                              );
                              ( "rules",
                                List
                                  (List.map
                                     (fun code ->
                                       Object
                                         [
                                           ("id", String code);
                                           ("name", String code);
                                         ])
                                     rules) );
                            ] );
                      ] );
                  ( "properties",
                    Object [ ("circuit", String circuit) ] );
                  ("results", List (List.map result_of findings));
                ];
            ] );
      ]
  in
  let run name source output json sarif strict =
    handle_errors @@ fun () ->
    let netlist, src, source, output =
      match read_circuit name ~source ~output with
      | Error msg -> die 1 "%s" msg
      | Ok (`Benchmark b, source, output) -> (b.Circuits.Benchmark.netlist, None, source, output)
      | Ok (`File (netlist, src), source, output) -> (netlist, Some src, source, output)
    in
    let findings = Analysis.Lint.run ?src ?source ?output netlist in
    Option.iter
      (fun path ->
        let oc = open_out path in
        output_string oc
          (Report.Json.to_string ~indent:2 (sarif_of_findings ~circuit:name findings));
        output_char oc '\n';
        close_out oc)
      sarif;
    if json then
      print_endline
        (Report.Json.to_string ~indent:2
           (Report.Json.Object
              [
                ("circuit", Report.Json.String name);
                ("findings", Report.Json.List (List.map json_of_finding findings));
                ("summary", Report.Json.String (Analysis.Finding.summary findings));
              ]))
    else begin
      List.iter
        (fun f -> print_endline (Analysis.Finding.to_string ~fallback:name f))
        findings;
      Printf.printf "%s%s\n" (if findings = [] then "" else "\n") (Analysis.Finding.summary findings)
    end;
    let errors = Analysis.Finding.errors findings in
    let warnings = Analysis.Finding.warnings findings in
    if errors <> [] || (strict && warnings <> []) then exit 6
  in
  let json_flag =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the findings as JSON.")
  in
  let sarif_opt =
    Arg.(value & opt (some string) None
         & info [ "sarif" ] ~docv:"FILE"
             ~doc:"Also write the findings to $(docv) as a SARIF 2.1.0 log \
                   (the static-analysis interchange format CI annotation \
                   tooling ingests).")
  in
  let strict_flag =
    Arg.(value & flag
         & info [ "strict" ] ~doc:"Exit with code 6 on warnings too, not only errors.")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Static analysis: validation, structural MNA rank at DC/HF/generic \
             frequencies, configuration-space diagnostics (broken test-input \
             chains, singular or equivalent configurations, structurally \
             undetectable faults) and a summary of the simulations the \
             campaign can skip")
    Term.(const run $ circuit_arg $ source_opt $ output_opt $ json_flag $ sarif_opt
          $ strict_flag)

let tf_cmd =
  let run name source output =
    with_circuit name source output (fun b ->
        let h =
          Mna.Symbolic.transfer ~source:b.Circuits.Benchmark.source
            ~output:b.Circuits.Benchmark.output b.Circuits.Benchmark.netlist
        in
        let h = Linalg.Ratfunc.simplify h in
        Format.printf "H(s) = %a@." Linalg.Ratfunc.pp h;
        Format.printf "dc gain = %g@." (Linalg.Ratfunc.dc_gain h);
        Format.printf "group delay at f0 = %.4g s@."
          (Linalg.Ratfunc.group_delay h
             (2.0 *. Float.pi *. b.Circuits.Benchmark.center_hz));
        let print_roots label roots =
          Format.printf "%s:@." label;
          Array.iter
            (fun r ->
              Format.printf "  %.4g %+.4gi  (|.|/2pi = %.4g Hz)@." r.Complex.re
                r.Complex.im
                (Complex.norm r /. (2.0 *. Float.pi)))
            roots
        in
        print_roots "poles" (Linalg.Ratfunc.poles h);
        print_roots "zeros" (Linalg.Ratfunc.zeros h))
  in
  Cmd.v (Cmd.info "tf" ~doc:"Symbolic transfer function, poles and zeros")
    Term.(const run $ circuit_arg $ source_opt $ output_opt)

let analyze_cmd =
  let run name source output criterion ppd fault_kind fault_element =
    with_circuit name source output (fun b ->
        let faults =
          match fault_element with
          | Some element -> [ Fault.deviation ~element 1.2 ]
          | None -> faults_of fault_kind b.Circuits.Benchmark.netlist
        in
        let grid =
          Testability.Grid.around ~points_per_decade:ppd
            ~center_hz:b.Circuits.Benchmark.center_hz ()
        in
        let probe =
          {
            Testability.Detect.source = b.Circuits.Benchmark.source;
            output = b.Circuits.Benchmark.output;
          }
        in
        let results =
          Testability.Detect.analyze ~criterion probe grid
            b.Circuits.Benchmark.netlist faults
        in
        Printf.printf "circuit: %s   criterion: %s\n" b.Circuits.Benchmark.name
          (criterion_str criterion);
        Printf.printf "fault coverage: %.1f%%   <w-det>: %.1f%%\n\n"
          (100.0 *. Testability.Detect.fault_coverage results)
          (100.0 *. Testability.Detect.average_omega_det results);
        let labels =
          Array.of_list (List.map (fun r -> r.Testability.Detect.fault.Fault.id) results)
        in
        let values =
          Array.of_list
            (List.map (fun r -> 100.0 *. r.Testability.Detect.omega_det) results)
        in
        print_string
          (Report.Chart.bars ~width:40 ~labels ~series:[ ("w-det %", values) ] ()))
  in
  let fault_element_opt =
    Arg.(value & opt (some string) None
         & info [ "fault-element" ] ~docv:"NAME"
             ~doc:"Restrict the analysis to the +20% deviation fault on the \
                   named element; exits with code 4 when the element is \
                   absent from the netlist.")
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Testability of the functional configuration (paper Sec. 2)")
    Term.(const run $ circuit_arg $ source_opt $ output_opt $ criterion_opt $ ppd_opt
          $ fault_kind_opt $ fault_element_opt)

let matrix_cmd =
  let run name source output criterion ppd fault_kind jobs metrics trace =
    with_observability ~metrics ~trace @@ fun () ->
    with_circuit name source output (fun b ->
        let faults = faults_of fault_kind b.Circuits.Benchmark.netlist in
        let t = P.run ~criterion ~points_per_decade:ppd ~faults ~jobs b in
        let m = t.P.matrix in
        let fault_ids = Array.map (fun f -> f.Fault.id) m.Testability.Matrix.faults in
        let header = "" :: Array.to_list fault_ids in
        Printf.printf "fault detectability matrix (%s):\n" (criterion_str criterion);
        print_endline
          (Report.Table.render ~header
             (Array.to_list
                (Array.mapi
                   (fun i row ->
                     m.Testability.Matrix.views.(i).Testability.Matrix.label
                     :: Array.to_list
                          (Array.map (fun d -> if d then "1" else "0") row))
                   m.Testability.Matrix.detect)));
        Printf.printf "\nw-detectability (%%):\n";
        print_endline
          (Report.Table.render ~header
             (Array.to_list
                (Array.mapi
                   (fun i row ->
                     m.Testability.Matrix.views.(i).Testability.Matrix.label
                     :: Array.to_list
                          (Array.map (fun w -> Printf.sprintf "%.1f" (100.0 *. w)) row))
                   m.Testability.Matrix.omega)));
        Printf.printf "\nmax fault coverage: %.1f%%\n"
          (100.0 *. Testability.Matrix.max_fault_coverage m);
        let groups = t.P.equivalence_groups and pruned = t.P.pruned_configs in
        Printf.printf
          "campaign pruning: %d equivalence group%s, %d configuration row%s \
           replicated\n"
          groups
          (if groups = 1 then "" else "s")
          pruned
          (if pruned = 1 then "" else "s"))
  in
  Cmd.v
    (Cmd.info "matrix" ~doc:"Fault detectability matrix over all test configurations")
    Term.(const run $ circuit_arg $ source_opt $ output_opt $ criterion_opt $ ppd_opt
          $ fault_kind_opt $ jobs_opt $ metrics_opt $ trace_opt)

let optimize_cmd =
  let run name source output criterion ppd fault_kind jobs n_detect json
      metrics trace =
    with_observability ~metrics ~trace @@ fun () ->
    with_circuit name source output (fun b ->
        let faults = faults_of fault_kind b.Circuits.Benchmark.netlist in
        let t = P.run ~criterion ~points_per_decade:ppd ~faults ~jobs b in
        let r = P.optimize ~n_detect t in
        if json then
          let snap =
            if metrics <> None then Some (Obs.Metrics.snapshot ()) else None
          in
          let coverage =
            Option.map
              (fun (component_tol, epsilon) ->
                let probe =
                  {
                    Testability.Detect.source = b.Circuits.Benchmark.source;
                    output = b.Circuits.Benchmark.output;
                  }
                in
                Testability.Montecarlo.coverage_run ~jobs ~component_tol
                  ~epsilon probe t.P.grid b.Circuits.Benchmark.netlist)
              (coverage_params criterion)
          in
          print_endline
            (Report.Json.to_string ~indent:2
               (Mcdft_core.Export.pipeline_to_json ?metrics:snap ?coverage t r))
        else
        let configs_to_string l =
          "{" ^ String.concat ", " (List.map (Printf.sprintf "C%d") l) ^ "}"
        in
        let opamps_to_string l =
          "{"
          ^ String.concat ", "
              (List.map (fun k -> Multiconfig.Transform.opamp_label t.P.dft k) l)
          ^ "}"
        in
        Printf.printf "circuit: %s   criterion: %s   faults: %d\n"
          b.Circuits.Benchmark.name (criterion_str criterion) (List.length faults);
        if t.P.pruned_configs > 0 then
          Printf.printf
            "campaign pruning: %d equivalence groups, %d configuration rows \
             replicated\n"
            t.P.equivalence_groups t.P.pruned_configs;
        Printf.printf "\nfundamental requirement:\n";
        Printf.printf "  functional coverage : %.1f%%\n" (100.0 *. r.O.functional_coverage);
        Printf.printf "  maximum coverage    : %.1f%%\n" (100.0 *. r.O.max_coverage);
        if r.O.uncoverable <> [] then
          Printf.printf "  uncoverable faults  : %s\n"
            (String.concat ", "
               (List.map
                  (fun j -> (List.nth faults j).Fault.id)
                  r.O.uncoverable));
        if n_detect > 1 then begin
          Printf.printf "  n-detect target     : %d detections per fault\n" n_detect;
          if r.O.short_faults <> [] then
            Printf.printf "  short faults        : %s\n"
              (String.concat ", "
                 (List.map
                    (fun (j, avail) ->
                      Printf.sprintf "%s (only %d config%s)" (List.nth faults j).Fault.id
                        avail
                        (if avail = 1 then "" else "s"))
                    r.O.short_faults))
        end;
        Printf.printf "  essential configs   : %s\n" (configs_to_string r.O.essential);
        (match (r.O.xi_terms_raw, r.O.xi_raw_count) with
        | Some terms, _ ->
            Printf.printf "  xi (SOP)            : %s\n"
              (String.concat " + "
                 (List.map
                    (fun s ->
                      String.concat "." (List.map (Printf.sprintf "C%d") (IntSet.elements s)))
                    terms))
        | None, Some n ->
            Printf.printf "  xi (SOP)            : %d terms (listing suppressed above %d)\n" n
              O.xi_listing_limit
        | None, None -> ());
        Printf.printf "\nobjective A - minimal test configurations:\n";
        Printf.printf "  chosen set          : %s\n" (configs_to_string r.O.choice_a.O.configs);
        Printf.printf "  <w-det>             : %.1f%%\n" r.O.choice_a.O.avg_omega;
        if n_detect > 1 then
          Printf.printf "  detections/fault    : worst %d, average %.2f\n"
            r.O.detection_a.O.worst r.O.detection_a.O.average;
        Printf.printf "\nobjective B - minimal configurable opamps (partial DFT):\n";
        Printf.printf "  configurable opamps : %s\n"
          (opamps_to_string r.O.choice_b.O.opamps);
        Printf.printf "  reachable configs   : %s\n"
          (configs_to_string r.O.choice_b.O.reachable_configs);
        Printf.printf "  <w-det>             : %.1f%%\n" r.O.choice_b.O.avg_omega_reachable;
        if n_detect > 1 then
          Printf.printf "  detections/fault    : worst %d, average %.2f\n"
            r.O.detection_b.O.worst r.O.detection_b.O.average;
        Printf.printf "\nreference <w-det>: functional %.1f%%, brute-force DFT %.1f%%\n"
          r.O.functional_avg_omega r.O.brute_force_avg_omega)
  in
  let json_flag =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON.")
  in
  let n_detect_opt =
    Arg.(
      value
      & opt positive_int 1
      & info [ "n-detect" ] ~docv:"N"
          ~doc:
            "Require each fault to be detected by at least $(docv) chosen \
             configurations (n-detection covering). Faults detectable by fewer than \
             $(docv) configurations are covered as far as possible and reported as \
             short.")
  in
  Cmd.v
    (Cmd.info "optimize"
       ~doc:"Ordered-requirements optimization of the multi-configuration DFT (Sec. 4)")
    Term.(const run $ circuit_arg $ source_opt $ output_opt $ criterion_opt $ ppd_opt
          $ fault_kind_opt $ jobs_opt $ n_detect_opt $ json_flag $ metrics_opt
          $ trace_opt)

let testplan_cmd =
  let run name source output criterion ppd fault_kind jobs metrics trace =
    with_observability ~metrics ~trace @@ fun () ->
    with_circuit name source output (fun b ->
        let faults = faults_of fault_kind b.Circuits.Benchmark.netlist in
        let t = P.run ~criterion ~points_per_decade:ppd ~faults ~jobs b in
        let plan = Mcdft_core.Test_plan.build t in
        print_string (Mcdft_core.Test_plan.to_string plan))
  in
  Cmd.v
    (Cmd.info "testplan"
       ~doc:"Minimal (configuration, frequency) measurement schedule")
    Term.(const run $ circuit_arg $ source_opt $ output_opt $ criterion_opt $ ppd_opt
          $ fault_kind_opt $ jobs_opt $ metrics_opt $ trace_opt)

let sweep_cmd =
  let run name source output ppd csv =
    with_circuit name source output (fun b ->
        let grid =
          Testability.Grid.around ~points_per_decade:ppd
            ~center_hz:b.Circuits.Benchmark.center_hz ()
        in
        let freqs = Testability.Grid.freqs_hz grid in
        let response =
          Mna.Ac.sweep ~source:b.Circuits.Benchmark.source
            ~output:b.Circuits.Benchmark.output b.Circuits.Benchmark.netlist
            ~freqs_hz:freqs
        in
        if csv then begin
          print_endline "freq_hz,magnitude,magnitude_db,phase_rad";
          Array.iteri
            (fun i f ->
              let h = response.(i) in
              Printf.printf "%g,%g,%g,%g\n" f (Complex.norm h) (Mna.Ac.magnitude_db h)
                (Complex.arg h))
            freqs
        end
        else begin
          let mags = Array.map Mna.Ac.magnitude_db response in
          Printf.printf "|H| in dB, %g Hz .. %g Hz (log):\n%s\n"
            (Testability.Grid.f_lo grid) (Testability.Grid.f_hi grid)
            (Report.Chart.sparkline mags);
          let peak = Array.fold_left Float.max neg_infinity mags in
          Printf.printf "peak %.1f dB; dc %.1f dB; top %.1f dB\n" peak mags.(0)
            mags.(Array.length mags - 1)
        end)
  in
  let csv_flag =
    Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV instead of a sparkline summary.")
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Frequency response of the functional circuit")
    Term.(const run $ circuit_arg $ source_opt $ output_opt $ ppd_opt $ csv_flag)

let diagnose_cmd =
  let module T = Diagnosis.Trajectory in
  let read_magnitudes file =
    let ic =
      try open_in file
      with Sys_error msg -> die 5 "cannot read observation file: %s" msg
    in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
    let values = ref [] in
    (try
       while true do
         let line = input_line ic in
         let line =
           match String.index_opt line '#' with
           | Some i -> String.sub line 0 i
           | None -> line
         in
         String.split_on_char ' ' line
         |> List.concat_map (String.split_on_char ',')
         |> List.iter (fun tok ->
                let tok = String.trim tok in
                if tok <> "" then
                  match float_of_string_opt tok with
                  | Some v -> values := v :: !values
                  | None -> die 1 "observation file %s: %S is not a number" file tok)
       done
     with End_of_file -> ());
    Array.of_list (List.rev !values)
  in
  let print_verdict (v : T.verdict) =
    Printf.printf "  located fault : %s\n" v.T.fault.Fault.id;
    Printf.printf "  rms distance  : %.4g\n" v.T.distance;
    Printf.printf "  confidence    : %.2f%s\n" v.T.confidence
      (if v.T.margin = infinity then " (only candidate)"
       else Printf.sprintf " (margin to runner-up %.4g)" v.T.margin);
    (if List.length v.T.ambiguous > 1 then
       Printf.printf "  ambiguity set : %s\n"
         (String.concat ", " (List.map (fun f -> f.Fault.id) v.T.ambiguous)));
    let show = min 3 (List.length v.T.ranking) in
    Printf.printf "  nearest %d     : %s\n" show
      (String.concat "  "
         (List.filteri (fun i _ -> i < show) v.T.ranking
         |> List.map (fun (f, d) -> Printf.sprintf "%s=%.3g" f.Fault.id d)))
  in
  let run name source output criterion ppd fault_kind jobs tolerance
      configs simulate simulate_all observe metrics trace =
    with_observability ~metrics ~trace @@ fun () ->
    with_circuit name source output (fun b ->
        let faults = faults_of fault_kind b.Circuits.Benchmark.netlist in
        let t =
          P.run ~criterion ~points_per_decade:ppd ~faults ~jobs b
        in
        let traj = T.of_pipeline ?tolerance ?configs t in
        Printf.printf "circuit: %s   measurements: %d points (%d faults)\n"
          b.Circuits.Benchmark.name (T.n_measurements traj) (List.length faults);
        let fault_of_arg s =
          match List.find_opt (fun f -> f.Fault.id = s) faults with
          | Some f -> f
          | None -> (
              match List.find_opt (fun f -> f.Fault.element = s) faults with
              | Some f -> f
              | None -> Fault.deviation ~element:s 1.2)
        in
        match (simulate, simulate_all, observe) with
        | Some _, true, _ | Some _, _, Some _ | _, true, Some _ ->
            die 1 "--simulate, --simulate-all and --observe are mutually exclusive"
        | Some fid, false, None ->
            let f = fault_of_arg fid in
            let v = T.classify ?tolerance traj (T.simulate traj f) in
            Printf.printf "\nsimulated fault %s:\n" f.Fault.id;
            print_verdict v;
            let hit =
              v.T.fault.Fault.id = f.Fault.id
              || List.exists (fun g -> g.Fault.id = f.Fault.id) v.T.ambiguous
            in
            if not hit then
              die 1 "self-test failed: %s was classified as %s (not in ambiguity set)"
                f.Fault.id v.T.fault.Fault.id
        | None, true, None ->
            let exact = ref 0 and via_set = ref 0 and missed = ref [] in
            List.iteri
              (fun j (f : Fault.t) ->
                let v = T.classify ?tolerance traj (T.signature traj j) in
                if v.T.fault.Fault.id = f.Fault.id then incr exact
                else if List.exists (fun g -> g.Fault.id = f.Fault.id) v.T.ambiguous
                then begin
                  incr via_set;
                  Printf.printf "  %-12s -> ambiguity set {%s}\n" f.Fault.id
                    (String.concat ", " (List.map (fun g -> g.Fault.id) v.T.ambiguous))
                end
                else begin
                  missed := f.Fault.id :: !missed;
                  Printf.printf "  %-12s -> MISS (classified %s, distance %.3g)\n"
                    f.Fault.id v.T.fault.Fault.id v.T.distance
                end)
              faults;
            Printf.printf
              "\nself-test: %d/%d located exactly, %d via ambiguity set, %d missed\n"
              !exact (List.length faults) !via_set (List.length !missed);
            if !missed <> [] then
              die 1 "diagnosis self-test missed: %s"
                (String.concat ", " (List.rev !missed))
        | None, false, Some file ->
            let mags = read_magnitudes file in
            let obs =
              try T.deviations_of_magnitudes traj mags
              with Invalid_argument _ ->
                die 1 "observation file %s has %d values; this measurement set needs %d"
                  file (Array.length mags) (T.n_measurements traj)
            in
            let v = T.classify ?tolerance traj obs in
            Printf.printf "\nobserved response (%s):\n" file;
            print_verdict v
        | None, false, None ->
            let sets = T.ambiguity_sets ?tolerance traj in
            Printf.printf "trajectory resolution: %.1f%%   (dictionary: %.1f%%)\n\n"
              (100.0 *. T.resolution ?tolerance traj)
              (100.0
              *. Diagnosis.Dictionary.resolution (Diagnosis.Dictionary.build ?configs t));
            Printf.printf "ambiguity sets:\n";
            List.iteri
              (fun i group ->
                Printf.printf "  %d. %s\n" (i + 1)
                  (String.concat ", " (List.map (fun f -> f.Fault.id) group)))
              sets)
  in
  let tolerance_opt =
    Arg.(
      value
      & opt (some float) None
      & info [ "tolerance" ] ~docv:"RMS"
          ~doc:
            "RMS deviation envelope within which two fault trajectories are \
             considered indistinguishable (default 0.02).")
  in
  let configs_opt =
    Arg.(
      value
      & opt (some (list int)) None
      & info [ "configs" ] ~docv:"I,J,.."
          ~doc:
            "Restrict the measurement set to these configuration indices (e.g. an \
             optimized cover); default: all test configurations.")
  in
  let simulate_opt =
    Arg.(
      value
      & opt (some string) None
      & info [ "simulate" ] ~docv:"FAULT"
          ~doc:
            "Self-test: simulate this fault (by id such as R1+20%, or element name \
             for a +20% deviation) and classify its response.")
  in
  let simulate_all_flag =
    Arg.(
      value & flag
      & info [ "simulate-all" ]
          ~doc:
            "Self-test every fault in the universe: classify the trajectory the \
             campaign recorded for it; exits non-zero if any fault is classified \
             outside its ambiguity set.")
  in
  let observe_opt =
    Arg.(
      value
      & opt (some string) None
      & info [ "observe" ] ~docv:"FILE"
          ~doc:
            "Classify measured response magnitudes |H| read from FILE \
             (whitespace/comma separated, configuration-major then frequency, one \
             value per measurement point; # comments to end of line).")
  in
  Cmd.v
    (Cmd.info "diagnose"
       ~doc:
         "Fault location by nearest response trajectory: ambiguity sets, \
          self-tests, and classification of observed responses")
    Term.(const run $ circuit_arg $ source_opt $ output_opt $ criterion_opt $ ppd_opt
          $ fault_kind_opt $ jobs_opt $ tolerance_opt
          $ configs_opt $ simulate_opt $ simulate_all_flag $ observe_opt $ metrics_opt
          $ trace_opt)

let blocks_cmd =
  let run name source output criterion ppd jobs metrics trace =
    with_observability ~metrics ~trace @@ fun () ->
    with_circuit name source output (fun b ->
        let t = P.run ~criterion ~points_per_decade:ppd ~jobs b in
        let rows =
          List.map
            (fun (r : Mcdft_core.Block_access.report) ->
              [
                Multiconfig.Transform.opamp_label t.P.dft
                  r.Mcdft_core.Block_access.but;
                Multiconfig.Configuration.label r.Mcdft_core.Block_access.access;
                string_of_int (List.length r.Mcdft_core.Block_access.faults_in_scope);
                Printf.sprintf "%.1f"
                  (100.0 *. r.Mcdft_core.Block_access.coverage_functional);
                Printf.sprintf "%.1f"
                  (100.0 *. r.Mcdft_core.Block_access.coverage_access);
              ])
            (Mcdft_core.Block_access.per_opamp t)
        in
        print_endline
          (Report.Table.render
             ~header:[ "block"; "access"; "in scope"; "in-situ FC %"; "access FC %" ]
             rows))
  in
  Cmd.v
    (Cmd.info "blocks"
       ~doc:"Embedded-block access: per-opamp coverage via the transparency mechanism")
    Term.(const run $ circuit_arg $ source_opt $ output_opt $ criterion_opt $ ppd_opt
          $ jobs_opt $ metrics_opt $ trace_opt)

let fuzz_cmd =
  (* "45", "45s" or "3m" *)
  let budget_conv =
    Arg.conv
      ( (fun s ->
          let num part = float_of_string_opt part in
          let parse =
            match String.length s with
            | 0 -> None
            | n -> (
                match s.[n - 1] with
                | 's' -> num (String.sub s 0 (n - 1))
                | 'm' ->
                    Option.map (fun v -> v *. 60.0) (num (String.sub s 0 (n - 1)))
                | _ -> num s)
          in
          match parse with
          | Some b when b > 0.0 -> Ok b
          | _ -> Error (`Msg "expected a positive duration, e.g. 60, 60s or 2m")),
        fun ppf b -> Format.fprintf ppf "%gs" b )
  in
  let seed_opt =
    Arg.(value & opt int 0
         & info [ "seed" ] ~docv:"N"
             ~doc:"Base seed of the campaign. Case $(i,i) is always generated \
                   from seed N+i of its family, so one seed pins the whole \
                   circuit sequence and every verdict.")
  in
  let budget_opt =
    Arg.(value & opt (some budget_conv) None
         & info [ "budget" ] ~docv:"DURATION"
             ~doc:"Stop after roughly $(docv) of wall clock (e.g. 60s, 2m). A \
                   budget only truncates the deterministic case sequence; it \
                   never changes a verdict.")
  in
  let cases_opt =
    Arg.(value & opt (some positive_int) None
         & info [ "cases" ] ~docv:"N"
             ~doc:"Run exactly $(docv) cases (default 50 when no --budget is \
                   given), for bit-identical reports across machines.")
  in
  let families_conv =
    Arg.conv
      ( (fun s ->
          let names = String.split_on_char ',' s in
          let parsed = List.map Conformance.Gen.family_of_string names in
          if List.mem None parsed then
            Error
              (`Msg
                (Printf.sprintf "unknown family in %S (known: %s)" s
                   (String.concat ", "
                      (List.map Conformance.Gen.family_name
                         Conformance.Gen.all_families))))
          else Ok (List.filter_map Fun.id parsed)),
        fun ppf fams ->
          Format.fprintf ppf "%s"
            (String.concat "," (List.map Conformance.Gen.family_name fams)) )
  in
  let families_opt =
    Arg.(value & opt families_conv Conformance.Gen.families
         & info [ "families" ] ~docv:"LIST"
             ~doc:"Comma-separated topology families to rotate over (default: \
                   the quick rotation; bigladder is opt-in).")
  in
  let oracles_conv =
    Arg.conv
      ( (fun s ->
          let names = String.split_on_char ',' s in
          let parsed = List.map Conformance.Oracle.find names in
          if List.mem None parsed then
            Error
              (`Msg
                (Printf.sprintf "unknown oracle in %S (known: %s)" s
                   (String.concat ", "
                      (List.map
                         (fun o -> o.Conformance.Oracle.name)
                         Conformance.Oracle.all))))
          else Ok (List.filter_map Fun.id parsed)),
        fun ppf os ->
          Format.fprintf ppf "%s"
            (String.concat ","
               (List.map (fun o -> o.Conformance.Oracle.name) os)) )
  in
  let oracles_opt =
    Arg.(value & opt oracles_conv Conformance.Oracle.all
         & info [ "oracles" ] ~docv:"LIST"
             ~doc:"Comma-separated differential oracles to run (default: all).")
  in
  let shrink_dir_opt =
    Arg.(value & opt string "fuzz-repros"
         & info [ "shrink-dir" ] ~docv:"DIR"
             ~doc:"Directory for shrunk failure repros (a SPICE netlist plus \
                   an expected-oracle JSON per failure).")
  in
  let snapshot_dir_opt =
    Arg.(value & opt string "test/fixtures/snapshots"
         & info [ "snapshot-dir" ] ~docv:"DIR"
             ~doc:"Directory holding the golden paper-table snapshots.")
  in
  let update_snapshots_flag =
    Arg.(value & flag
         & info [ "update-snapshots" ]
             ~doc:"Regenerate the golden snapshots under --snapshot-dir and \
                   exit (no fuzzing).")
  in
  let check_snapshots_flag =
    Arg.(value & flag
         & info [ "check-snapshots" ]
             ~doc:"Byte-compare the golden snapshots under --snapshot-dir and \
                   exit (no fuzzing); exit code 1 on drift.")
  in
  let replay_opt =
    Arg.(value & opt (some string) None
         & info [ "replay" ] ~docv:"FILE"
             ~doc:"Replay one repro from its .expected.json file instead of \
                   fuzzing: exit 0 when the failure still reproduces, 1 when \
                   it no longer does.")
  in
  let list_oracles_flag =
    Arg.(value & flag
         & info [ "list-oracles" ] ~doc:"List the oracle registry and exit.")
  in
  let verbose_flag =
    Arg.(value & flag
         & info [ "verbose"; "v" ]
             ~doc:"Log every case and verdict to stderr as the campaign runs.")
  in
  let run seed budget cases families oracles shrink_dir snapshot_dir
      update_snapshots check_snapshots replay list_oracles verbose =
    handle_errors @@ fun () ->
    if list_oracles then begin
      List.iter
        (fun (o : Conformance.Oracle.t) ->
          Printf.printf "%-18s %s\n" o.Conformance.Oracle.name
            o.Conformance.Oracle.doc)
        Conformance.Oracle.all;
      exit 0
    end;
    if update_snapshots then begin
      List.iter print_endline (Conformance.Snapshot.update ~dir:snapshot_dir);
      exit 0
    end;
    if check_snapshots then begin
      match Conformance.Snapshot.check ~dir:snapshot_dir with
      | Ok () ->
          Printf.printf "snapshots under %s are up to date\n" snapshot_dir;
          exit 0
      | Error msg -> die 1 "snapshot drift:\n%s" msg
    end;
    match replay with
    | Some expected -> (
        match Conformance.Shrink.load ~expected with
        | Error msg -> die 1 "%s" msg
        | Ok repro -> (
            match Conformance.Shrink.replay repro with
            | Error msg -> die 1 "%s" msg
            | Ok verdict ->
                Printf.printf "%s on %s: %s\n" repro.Conformance.Shrink.oracle
                  repro.Conformance.Shrink.label
                  (Conformance.Oracle.verdict_to_string verdict);
                exit
                  (match verdict with Conformance.Oracle.Fail _ -> 0 | _ -> 1)))
    | None ->
        let max_cases =
          match (cases, budget) with
          | Some n, _ -> Some n
          | None, None -> Some 50
          | None, Some _ -> None
        in
        let config =
          {
            Conformance.Fuzz.seed;
            budget_s = budget;
            max_cases;
            families;
            oracles;
            shrink_dir = Some shrink_dir;
            log = (if verbose then fun s -> Printf.eprintf "%s\n%!" s else ignore);
          }
        in
        Printf.printf "mcdft fuzz: seed %d, %s, families %s, oracles %s\n%!" seed
          (match (max_cases, budget) with
          | Some n, None -> Printf.sprintf "%d cases" n
          | Some n, Some b -> Printf.sprintf "up to %d cases within %gs" n b
          | None, Some b -> Printf.sprintf "budget %gs" b
          | None, None -> "unbounded")
          (String.concat "," (List.map Conformance.Gen.family_name families))
          (String.concat ","
             (List.map (fun o -> o.Conformance.Oracle.name) oracles));
        let outcome = Conformance.Fuzz.run config in
        print_string (Conformance.Fuzz.summary outcome);
        Printf.printf "replay any failure with: mcdft fuzz --replay %s/<slug>.expected.json\n"
          shrink_dir;
        if outcome.Conformance.Fuzz.failures <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Differential conformance fuzzing: random circuits checked by \
             redundant-implementation oracles (planar vs boxed solves, rank-1 \
             vs re-assembled faults, parallel vs sequential campaigns, \
             structural vs numeric rank, exhaustive vs branch-and-bound \
             covers), with failing cases shrunk to minimal repro fixtures. \
             Verdicts depend only on --seed and the case index — never on \
             --budget.")
    Term.(const run $ seed_opt $ budget_opt $ cases_opt $ families_opt
          $ oracles_opt $ shrink_dir_opt $ snapshot_dir_opt
          $ update_snapshots_flag $ check_snapshots_flag $ replay_opt
          $ list_oracles_flag $ verbose_flag)

let () =
  let doc = "multi-configuration DFT analysis for analog circuits (DATE 1998 reproduction)" in
  let info = Cmd.info "mcdft" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd; show_cmd; lint_cmd; tf_cmd; analyze_cmd; matrix_cmd;
            optimize_cmd; testplan_cmd; sweep_cmd; diagnose_cmd; blocks_cmd; fuzz_cmd;
          ]))
