(* One workload run: set-up, a closed loop of units for a fixed
   measuring window, then the exhaustive reference that every unit's
   digest must equal. With [~trace:false] it reports the end-to-end
   metrics, with [~trace:true] the per-layer ones from a traced unit.
   One client, one unit in flight: each unit starts when the previous
   one has ended. *)

module W = Workload
module P = Mcdft_core.Pipeline
module J = Report.Json

let now = Unix.gettimeofday

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Same settings as the mcdft CLI's campaign subcommands; must run
   before the first Domain.spawn. *)
let tune_gc () =
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 1 lsl 22; space_overhead = 200 }

let peak_rss_mb () =
  let status = In_channel.with_open_text "/proc/self/status" In_channel.input_all in
  match
    List.find_map
      (fun line ->
        if String.starts_with ~prefix:"VmHWM:" line then
          Scanf.sscanf_opt line "VmHWM: %f kB" Fun.id
        else None)
      (String.split_on_char '\n' status)
  with
  | Some kb -> kb /. 1024.0
  | None -> failwith "no VmHWM line in /proc/self/status"

type sample = { wall_s : float; cpu_s : float }

(* A window unit's times divided by its host factor. *)
let corrected factor s = { wall_s = s.wall_s /. factor; cpu_s = s.cpu_s /. factor }

(* Units that raised or whose digest differs from the reference. *)
let failures ~reference digests =
  List.length (List.filter (fun d -> d <> Some reference) digests)

(* Runs one unit and books its digest, or [None] when it raised, into
   [digests]; they are checked against the reference once timing is
   over. *)
let run_checked digests w circuits =
  let w0 = now () and c0 = cpu_now () in
  match W.run_unit w circuits with
  | exception e ->
      Printf.eprintf "unit failed: %s\n%!" (Printexc.to_string e);
      digests := None :: !digests;
      None
  | outcomes ->
      let sample = { wall_s = now () -. w0; cpu_s = cpu_now () -. c0 } in
      digests := Some (W.digest outcomes) :: !digests;
      Some (outcomes, sample)

(* Set-up as a one-shot user pays it: from process start through input
   generation and one unit (which parses), and the process's peak
   resident memory at that point. Each sample is a fresh process, so
   that caches filled by an earlier unit cannot hide set-up work, timed
   by the parent from the spawn until the probe's report line arrives.
   Its host factor comes from a kernel sample the parent takes just
   before the spawn and one the probe takes just after its report. *)
type setup = { setup_s : float; rss_mb : float; factor : float }

let setup_probe w ~seed =
  let circuits = w.W.circuits ~seed in
  let outcomes = W.run_unit w circuits in
  Printf.printf "setup %.6f %s\n%!" (peak_rss_mb ()) (W.digest outcomes);
  Printf.printf "host %.6f\n%!" (Host.sample ())

let spawn_setup_probe w ~seed =
  let exe = Sys.executable_name in
  let before = Host.sample () in
  let t0 = now () in
  let ic =
    Unix.open_process_args_in exe
      [| exe; "--setup-probe"; "--workload"; w.W.name; "--seed"; string_of_int seed |]
  in
  let line = In_channel.input_line ic in
  let setup_s = now () -. t0 in
  let host = In_channel.input_line ic in
  ignore (In_channel.input_all ic);
  match (Unix.close_process_in ic, line, host) with
  | Unix.WEXITED 0, Some line, Some host -> (
      match
        ( Scanf.sscanf_opt line "setup %f %s" (fun rss_mb d -> (rss_mb, d)),
          Scanf.sscanf_opt host "host %f" Fun.id )
      with
      | Some (rss_mb, d), Some after ->
          Some ({ setup_s; rss_mb; factor = Host.factor [ before; after ] }, d)
      | _ -> None)
  | _ -> None

(* An odd count, so the median is one of the samples. *)
let setup_probes = 3

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value =
  { name; unit_; value = (if Float.is_finite value then value else 0.0) }

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ---- per-layer attribution ---- *)

(* Program span → layer metric. Self times, so a parent's metric holds
   only the time its named children do not claim: thresholds_s is
   adaptive.prepare minus engine creation and the warm cache, score_s
   is adaptive.build minus preparation and reduce. *)
let layer_spans =
  [
    ("spice.parse", "spice.parse_s");
    ("pipeline.transform", "multiconfig.transform_s");
    ("pipeline.views", "multiconfig.emulate_s");
    ("pipeline.prune", "analysis.prune_s");
    ("pipeline.certify", "analysis.certify_s");
    ("mna.sweep", "mna.sweep_s");
    ("fastsim.create", "testability.engine_s");
    ("adaptive.prepare", "testability.thresholds_s");
    ("fastsim.warm_cache", "testability.warm_s");
    ("fastsim.structural", "testability.structural_s");
    ("adaptive.build", "testability.score_s");
    ("adaptive.reduce", "core.reduce_s");
    ("pipeline.run", "core.pipeline_self_s");
    ("pipeline.optimize", "core.optimize_s");
    ("optimizer.min_opamp_subsets", "core.opamp_subsets_s");
    ("cover.exact", "cover.exact_s");
    ("report.export", "report.export_s");
  ]

let hist (snap : Obs.Metrics.snapshot) name =
  match List.assoc_opt name snap.Obs.Metrics.histograms with
  | Some h -> (h.Obs.Metrics.sum, h.Obs.Metrics.count)
  | None -> (0.0, 0)

let sum_over outcomes f = List.fold_left (fun acc o -> acc + f o) 0 outcomes

let layer_metrics ~outcomes ~(attr : Spans.attribution) ~snap ~(gc0 : Gc.stat)
    ~(gc1 : Gc.stat) =
  let c name = float_of_int (Obs.Metrics.counter snap name) in
  let n f = float_of_int (sum_over outcomes f) in
  let views = n (fun o -> Array.length o.W.pipeline.P.matrix.Testability.Matrix.views) in
  let groups = n (fun o -> o.W.pipeline.P.equivalence_groups) in
  let adaptive f =
    n (fun o -> match o.W.pipeline.P.adaptive with Some s -> f s | None -> 0)
  in
  let certify f =
    n (fun o ->
        match o.W.pipeline.P.certify with
        | Some c -> f c.Analysis.Certify.stats
        | None -> 0)
  in
  (* representative rows × points: the work the warm cache serves *)
  let group_points =
    n (fun o ->
        o.W.pipeline.P.equivalence_groups
        * Array.length o.W.pipeline.P.matrix.Testability.Matrix.faults
        * Testability.Grid.n_points o.W.pipeline.P.grid)
  in
  let points = adaptive (fun s -> s.Mcdft_core.Adaptive.points) in
  let solved = adaptive (fun s -> s.Mcdft_core.Adaptive.solved) in
  let cert_points = certify (fun s -> s.Analysis.Certify.points) in
  let cert_proved = certify (fun s -> s.Analysis.Certify.points_proved) in
  let layer name = m name "s" (List.assoc name attr.Spans.layers) in
  let assemble_s, _ = hist snap "mna.assemble_s" in
  let analyze_s, _ = hist snap "mna.analyze_s" in
  let solve_s, _ = hist snap "mna.solve_s" in
  let factor_s, factors = hist snap "mna.factor_s" in
  let attributed = attr.Spans.wall_s -. attr.Spans.unattributed_s in
  [
    layer "spice.parse_s";
    m "spice.elements" "count"
      (n (fun o -> Circuit.Netlist.size o.W.pipeline.P.benchmark.Circuits.Benchmark.netlist));
    layer "multiconfig.transform_s";
    layer "multiconfig.emulate_s";
    m "multiconfig.views" "count" views;
    layer "analysis.prune_s";
    m "analysis.equivalence_groups" "count" groups;
    m "analysis.prune_ratio" "ratio" (ratio groups views);
    layer "analysis.certify_s";
    m "analysis.certify_points_proved" "count" cert_proved;
    m "analysis.certify_cells_proved" "count"
      (certify (fun s -> s.Analysis.Certify.cells_proved));
    m "analysis.certify_views_gated" "count"
      (certify (fun s -> s.Analysis.Certify.skipped_views));
    m "analysis.certify_yield" "ratio" (ratio cert_proved cert_points);
    layer "testability.engine_s";
    layer "testability.thresholds_s";
    layer "testability.warm_s";
    m "testability.warm_use_ratio" "ratio" (ratio (c "fastsim.smw_solves") group_points);
    layer "testability.score_s";
    layer "testability.structural_s";
    m "testability.points" "count" points;
    m "testability.points_solved" "count" solved;
    m "testability.solve_ratio" "ratio" (ratio solved points);
    m "testability.bisections" "count" (adaptive (fun s -> s.Mcdft_core.Adaptive.bisections));
    m "testability.smw_solves" "count" (c "fastsim.smw_solves");
    m "testability.full_solves" "count" (c "fastsim.full_solves");
    m "testability.structural_faults" "count" (c "fastsim.structural_faults");
    m "testability.wcache_hits" "count" (c "fastsim.wcache_hits");
    m "testability.wcache_misses" "count" (c "fastsim.wcache_misses");
    layer "mna.sweep_s";
    m "mna.fills" "count" (c "mna.fills");
    m "mna.assemble_s" "s" assemble_s;
    m "mna.analyze_s" "s" analyze_s;
    m "mna.solve_s" "s" solve_s;
    m "linalg.factor_s" "s" factor_s;
    m "linalg.factors" "count" (float_of_int factors);
    layer "core.pipeline_self_s";
    layer "core.reduce_s";
    layer "core.optimize_s";
    layer "core.opamp_subsets_s";
    m "core.subsets_tested" "count" (c "optimizer.subsets_tested");
    layer "cover.exact_s";
    m "cover.bnb_nodes" "count" (c "cover.bnb_nodes");
    m "cover.xi_terms" "count"
      (n (fun o ->
           match o.W.report.Mcdft_core.Optimizer.xi_terms_raw with
           | Some terms -> List.length terms
           | None -> 0));
    layer "report.export_s";
    m "report.json_bytes" "bytes" (n (fun o -> o.W.json_bytes));
    m "runtime.minor_words" "words" (gc1.Gc.minor_words -. gc0.Gc.minor_words);
    m "runtime.major_collections" "count"
      (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
    m "runtime.top_heap_mb" "MiB"
      (float_of_int (gc1.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0);
    m "attribution.wall_s" "s" attr.Spans.wall_s;
    m "attribution.unattributed_s" "s" attr.Spans.unattributed_s;
    m "attribution.coverage" "ratio" (ratio attributed attr.Spans.wall_s);
  ]

(* ---- the run ---- *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  notes : string list;  (** Human-readable lines printed before the JSON. *)
}

let with_sinks f =
  Obs.Trace.set_enabled true;
  Obs.Metrics.reset ();
  Obs.Metrics.set_enabled true;
  Fun.protect f ~finally:(fun () ->
      Obs.Metrics.set_enabled false;
      Obs.Trace.set_enabled false)

(* One traced unit. At jobs=1 its spans nest on one lane, so self times
   add up to the unit's wall clock. Its layer times are raw seconds; the
   trace overhead divides its wall clock by its own host factor, like a
   window unit's, and compares that with [campaign_s]. *)
let traced_metrics digests w circuits ~campaign_s ~trace_file =
  Obs.Trace.reset ();
  let before = Host.sample () in
  let gc0 = Gc.quick_stat () in
  let traced = with_sinks (fun () -> run_checked digests w circuits) in
  let gc1 = Gc.quick_stat () in
  let factor = Host.factor [ before; Host.sample () ] in
  let snap = Obs.Metrics.snapshot () in
  let events = Obs.Trace.events () in
  Option.iter Obs.Trace.write trace_file;
  match traced with
  | Some (outcomes, _) ->
      let attr = Spans.attribute ~root:"unit" ~layers:layer_spans events in
      ( layer_metrics ~outcomes ~attr ~snap ~gc0 ~gc1
        @ [
            m "obs.trace_overhead" "ratio"
              (ratio (attr.Spans.wall_s /. factor) campaign_s -. 1.0);
          ],
        List.map
          (fun (name, s) -> Printf.sprintf "unattributed: %s %.4f s" name s)
          attr.Spans.unclaimed )
  | None -> failwith "the traced unit failed"

let run ~workload:w ~seed ~seconds ~trace ?trace_file () =
  let digests = ref [] in
  (* set-up: the probes first, while this process is still small *)
  let probes =
    if trace then [] else List.init setup_probes (fun _ -> spawn_setup_probe w ~seed)
  in
  List.iter (fun p -> digests := Option.map snd p :: !digests) probes;
  let setups = List.filter_map (Option.map fst) probes in
  if (not trace) && setups = [] then failwith "every set-up probe failed";
  (* warm-up, then the measuring window: at least one unit, each with a
     host factor from the kernel samples just before and just after it *)
  let circuits = w.W.circuits ~seed in
  ignore (run_checked digests w circuits);
  let samples = ref [] and verdicts = ref 0 and started_units = ref 0 in
  let host = ref (Host.sample ()) in
  let t_loop = now () in
  while !started_units = 0 || now () -. t_loop < seconds do
    incr started_units;
    let unit = run_checked digests w circuits in
    let before = !host and after = Host.sample () in
    host := after;
    match unit with
    | Some (outcomes, s) ->
        samples := (s, Host.factor [ before; after ]) :: !samples;
        verdicts := W.verdicts outcomes
    | None -> ()
  done;
  if !samples = [] then failwith "every unit in the measuring window failed";
  let samples = List.rev !samples in
  let walls = List.map (fun (s, _) -> s.wall_s) samples in
  let raw_s = Stats.median walls in
  let units = List.map (fun (s, factor) -> corrected factor s) samples in
  let campaign_s = Stats.median (List.map (fun s -> s.wall_s) units) in
  let notes =
    [
      Printf.sprintf "campaign_s: median %.4f s (raw %.4f s), n=%d; raw units: %s" campaign_s
        raw_s (List.length walls)
        (String.concat " " (List.map (Printf.sprintf "%.3f") walls));
      Printf.sprintf "host factors: %s"
        (String.concat " " (List.map (fun (_, f) -> Printf.sprintf "%.3f" f) samples));
    ]
  in
  let metrics, notes =
    if trace then
      let metrics, more = traced_metrics digests w circuits ~campaign_s ~trace_file in
      (metrics, notes @ more)
    else
      ( [
          m "campaign_s" "s" campaign_s;
          m "cpu_s" "s" (Stats.median (List.map (fun s -> s.cpu_s) units));
          m "verdicts_per_s" "1/s" (float_of_int !verdicts /. campaign_s);
          m "setup_s" "s" (Stats.median (List.map (fun x -> x.setup_s /. x.factor) setups));
          m "peak_rss_mb" "MiB" (Stats.median (List.map (fun x -> x.rss_mb) setups));
        ],
        notes
        @ [
            Printf.sprintf "set-ups (raw s, host factor, MiB): %s"
              (String.concat " "
                 (List.map
                    (fun x -> Printf.sprintf "%.3f/%.3f/%.0f" x.setup_s x.factor x.rss_mb)
                    setups));
          ] )
  in
  (* outside every metric: the exhaustive reference for these inputs *)
  let failed =
    match W.reference w circuits with
    | exception e ->
        Printf.eprintf "reference failed: %s\n%!" (Printexc.to_string e);
        List.length !digests
    | reference -> failures ~reference !digests
  in
  let attempted = List.length !digests in
  {
    correct = failed = 0;
    attempted;
    failed;
    metrics;
    notes = notes @ [ Printf.sprintf "error_rate: %d/%d" failed attempted ];
  }

let result_to_json r =
  J.Object
    [
      ("correct", J.Bool r.correct);
      ("attempted", J.int r.attempted);
      ("failed", J.int r.failed);
      ( "metrics",
        J.Object
          (List.map
             (fun x -> (x.name, J.Object [ ("value", J.Number x.value); ("unit", J.String x.unit_) ]))
             r.metrics) );
    ]
