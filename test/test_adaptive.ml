(* Properties of the coverage-directed refinement (Mcdft_core.Adaptive)
   and the tolerance-space coverage estimator (Montecarlo.coverage_run).

   The qcheck properties drive Refine.row against synthetic truth rows
   whose margins obey the slope bound the refinement assumes — a
   random Lipschitz walk in the log deviation-to-threshold ratio. On
   such rows the skip rule is provably sound, so the refined row must
   reproduce the truth byte for byte, an isolated flip can never be
   inferred from its neighbours and must appear in the solved set, and
   no point is solved twice or solved at all unless its anchor left it
   unknown. The end-to-end and CLI cases then pin the same
   invariant on the real engine. *)

module A = Mcdft_core.Adaptive
module P = Mcdft_core.Pipeline

(* ---- synthetic truth rows with slope-bounded margins ---- *)

type row = {
  nf : int;
  stride : int;
  step_dec : float;
  guard : float;
  margins : float array;
}

let gen_row seed =
  let rng = Random.State.make [| seed |] in
  let nf = 2 + Random.State.int rng 120 in
  let stride = 1 + Random.State.int rng 8 in
  let step_dec = 0.01 +. Random.State.float rng 0.2 in
  let guard = 4.0 +. Random.State.float rng 12.0 in
  let margins = Array.make nf 0.0 in
  margins.(0) <- Random.State.float rng 6.0 -. 3.0;
  for i = 1 to nf - 1 do
    (* increments strictly inside the slope bound so float rounding in
       the walk cannot graze the skip test's strict inequality *)
    let slope = 0.999 *. guard *. step_dec in
    margins.(i) <- margins.(i - 1) +. (Random.State.float rng (2.0 *. slope)) -. slope
  done;
  (* keep every margin away from zero: the byte is its sign *)
  Array.iteri
    (fun i m -> if Float.abs m < 1e-9 then margins.(i) <- 1e-6)
    margins;
  { nf; stride; step_dec; guard; margins }

let byte_of r i = if r.margins.(i) > 0.0 then 'd' else 'u'

let refine ?(anchor = fun _ -> '?') r =
  A.Refine.row ~nf:r.nf ~stride:r.stride ~step_dec:r.step_dec ~guard:r.guard
    ~steer_range:(fun _ _ -> 0.0) ~anchor
    ~solve:(fun i -> (byte_of r i, r.margins.(i)))

let row_matches r (o : A.Refine.outcome) =
  let ok = ref true in
  for i = 0 to r.nf - 1 do
    if Bytes.get o.A.Refine.verdicts i <> byte_of r i then ok := false
  done;
  !ok

let qcheck_refined_row_exact =
  QCheck.Test.make
    ~name:"Refine.row reproduces Lipschitz truth rows; isolated flips are solved"
    ~count:500
    (QCheck.make QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let r = gen_row seed in
      let o = refine r in
      let solved = o.A.Refine.solved in
      (* every point is solved at most once, so a row never solves more
         than its '?' anchors — here, every point *)
      if
        not
          (row_matches r o
          && List.sort_uniq Int.compare solved = List.sort Int.compare solved
          && List.length solved <= r.nf)
      then false
      else begin
        (* a point disagreeing with both neighbours cannot be filled
           from any interval endpoints — it must have been solved *)
        let solved_ok = ref true in
        for i = 1 to r.nf - 2 do
          if
            byte_of r i <> byte_of r (i - 1)
            && byte_of r i <> byte_of r (i + 1)
            && not (List.mem i o.A.Refine.solved)
          then solved_ok := false
        done;
        !solved_ok
      end)

let qcheck_static_anchors_never_solved =
  QCheck.Test.make
    ~name:"static anchors seed the refinement and are never re-solved"
    ~count:500
    (QCheck.make QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let r = gen_row seed in
      let rng = Random.State.make [| seed + 7 |] in
      let known = Array.init r.nf (fun _ -> Random.State.int rng 3 = 0) in
      let anchor i = if known.(i) then byte_of r i else '?' in
      let o = refine ~anchor r in
      row_matches r o
      && List.for_all (fun i -> not known.(i)) o.A.Refine.solved)

(* ---- end-to-end: adaptive pipeline = exhaustive pipeline = the
   per-view Detect.analyze reference ---- *)

let run_pipeline ~adaptive ~criterion () =
  let b = Circuits.Tow_thomas.make () in
  P.run ~criterion ~points_per_decade:6 ~jobs:1 ~adaptive b

let check_identical ~what criterion =
  let exhaustive = run_pipeline ~adaptive:false ~criterion () in
  let t = run_pipeline ~adaptive:true ~criterion () in
  let me = exhaustive.P.matrix and ma = t.P.matrix in
  let reference =
    Array.map
      (fun (v : Testability.Matrix.view) ->
        Array.of_list
          (Testability.Detect.analyze ~criterion v.Testability.Matrix.probe
             exhaustive.P.grid v.Testability.Matrix.netlist exhaustive.P.faults))
      me.Testability.Matrix.views
  in
  Alcotest.(check bool)
    (what ^ ": stride-1 detect = Detect.analyze")
    true
    (me.Testability.Matrix.detect
    = Array.map (Array.map (fun r -> r.Testability.Detect.detectable)) reference);
  Alcotest.(check bool)
    (what ^ ": stride-1 omega = Detect.analyze")
    true
    (me.Testability.Matrix.omega
    = Array.map (Array.map (fun r -> r.Testability.Detect.omega_det)) reference);
  Alcotest.(check bool)
    (what ^ ": detect bitwise identical")
    true
    (ma.Testability.Matrix.detect = me.Testability.Matrix.detect);
  Alcotest.(check bool)
    (what ^ ": omega bitwise identical")
    true
    (ma.Testability.Matrix.omega = me.Testability.Matrix.omega);
  Alcotest.(check bool) (what ^ ": exhaustive run carries no stats") true
    (exhaustive.P.adaptive = None);
  match t.P.adaptive with
  | None -> Alcotest.fail (what ^ ": adaptive run carries no stats")
  | Some s ->
      Alcotest.(check int)
        (what ^ ": points = solved + skipped")
        s.A.points (s.A.solved + s.A.skipped);
      s

let test_pipeline_identity_envelope () =
  let s = check_identical ~what:"envelope" P.default_criterion in
  Alcotest.(check bool) "some points skipped" true (s.A.skipped > 0)

let test_pipeline_identity_fixed () =
  let s =
    check_identical ~what:"fixed" (Testability.Detect.Fixed_tolerance 0.10)
  in
  Alcotest.(check bool) "some points skipped" true (s.A.skipped > 0)

(* the remaining criterion constructors: with envelope and fixed above,
   stride 1 = Detect.analyze is pinned for every one of them *)
let test_pipeline_identity_other_criteria () =
  List.iter
    (fun (what, criterion) -> ignore (check_identical ~what criterion))
    Testability.Detect.
      [
        ("phase", Phase_fixed 0.1);
        ("phase-envelope", Phase_envelope { component_tol = 0.04; floor_rad = 0.05 });
        ("any-of", Any_of [ Fixed_tolerance 0.1; Phase_fixed 0.1 ]);
      ]

(* ---- CLI surface ---- *)

let non_summary_lines out =
  List.filter
    (fun l -> not (String.length l >= 8 && String.sub l 0 8 = "adaptive"))
    (String.split_on_char '\n' out)

(* table-driven: the numeric tables printed with and without
   --adaptive must be byte-identical on every criterion family *)
let cli_criteria =
  [
    ("envelope", "envelope:0.04:0.02");
    ("fixed", "fixed:0.1");
    ("phase", "phase:0.1");
  ]

let test_cli_adaptive_identity () =
  List.iter
    (fun (what, crit) ->
      let args =
        Printf.sprintf "matrix tow-thomas --points-per-decade 4 --criterion %s"
          crit
      in
      let c1, on = Cli.capture (args ^ " --adaptive") in
      let c2, off = Cli.capture (args ^ " --no-adaptive") in
      Alcotest.(check int) (what ^ ": --adaptive exits 0") 0 c1;
      Alcotest.(check int) (what ^ ": --no-adaptive exits 0") 0 c2;
      Alcotest.(check (list string))
        (what ^ ": tables identical modulo the summary line")
        (non_summary_lines off) (non_summary_lines on))
    cli_criteria

let test_cli_summary_line_format () =
  let _, out = Cli.capture "matrix tow-thomas --points-per-decade 4" in
  let line =
    List.find_opt
      (fun l -> String.length l >= 8 && String.sub l 0 8 = "adaptive")
      (String.split_on_char '\n' out)
  in
  match line with
  | None -> Alcotest.fail "no adaptive summary line in matrix output"
  | Some l -> (
      match
        Scanf.sscanf l
          "adaptive refinement: solved %d of %d points (%fx fewer solves, %d \
           skipped, %d bisections"
          (fun solved points ratio skipped bisections ->
            (solved, points, ratio, skipped, bisections))
      with
      | exception Scanf.Scan_failure _ ->
          Alcotest.failf "summary line does not parse: %s" l
      | solved, points, ratio, skipped, _ ->
          Alcotest.(check bool) "solved <= points" true (solved <= points);
          Alcotest.(check int) "skipped = points - solved" (points - solved)
            skipped;
          Alcotest.(check bool) "ratio consistent" true
            (Float.abs (ratio -. (float_of_int points /. float_of_int solved))
             < 0.06))

(* ---- streaming campaign on recycled storage ---- *)

(* leapfrog5 at ppd 3 under the default envelope criterion: each view
   task builds its engine on a workspace of the campaign's pool for the
   view's dimension, so the workspace allocations stay within (distinct
   view dimensions) × jobs however many views stream through. The 64
   dead views build nothing, and the matrices equal the exhaustive
   stride-1 sweep and the per-view Detect.analyze reference, which
   builds every engine on storage of its own. The campaigns run one
   after another on the calling domain, and each starts from nothing:
   a campaign's storage does not outlive it. *)
let test_streaming_campaign_bounded () =
  let b = Option.get (Circuits.Registry.find "leapfrog5") in
  let netlist = b.Circuits.Benchmark.netlist in
  let dft =
    Multiconfig.Transform.make ~source:b.Circuits.Benchmark.source
      ~output:b.Circuits.Benchmark.output netlist
  in
  let grid =
    Testability.Grid.around ~points_per_decade:3 ~center_hz:b.Circuits.Benchmark.center_hz ()
  in
  let probe =
    {
      Testability.Detect.source = b.Circuits.Benchmark.source;
      output = b.Circuits.Benchmark.output;
    }
  in
  let views =
    List.map
      (fun config ->
        {
          Testability.Matrix.label = Multiconfig.Configuration.label config;
          netlist = Multiconfig.Transform.emulate dft config;
          probe;
        })
      (Multiconfig.Transform.test_configurations dft)
  in
  let faults = Fault.deviation_faults netlist in
  let criterion = P.default_criterion in
  let dims =
    List.sort_uniq compare
      (List.map
         (fun v -> Mna.Index.size (Mna.Index.build v.Testability.Matrix.netlist))
         views)
  in
  let campaign ?stride jobs =
    Obs.Metrics.reset ();
    Obs.Metrics.set_enabled true;
    Fun.protect
      ~finally:(fun () ->
        Obs.Metrics.set_enabled false;
        Obs.Metrics.reset ())
      (fun () ->
        let m, _ = A.build ~criterion ~jobs ?stride grid views faults in
        let snap = Obs.Metrics.snapshot () in
        let c = Obs.Metrics.counter snap in
        (m, c "fastsim.workspace_allocs", c "campaign.dead_views"))
  in
  let exhaustive, first_allocs, _ = campaign ~stride:1 1 in
  List.iter
    (fun jobs ->
      let m, allocs, dead = campaign jobs in
      let label = Printf.sprintf "jobs %d" jobs in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d workspace allocations <= %d dimensions x jobs" label allocs
           (List.length dims))
        true
        (allocs >= 1 && allocs <= List.length dims * jobs);
      Alcotest.(check int) (label ^ ": dead views") 64 dead;
      Alcotest.(check bool) (label ^ ": detect = stride 1") true
        (m.Testability.Matrix.detect = exhaustive.Testability.Matrix.detect);
      Alcotest.(check bool) (label ^ ": omega = stride 1") true
        (m.Testability.Matrix.omega = exhaustive.Testability.Matrix.omega))
    [ 1; 2 ];
  (* a tow-thomas campaign in between, on views of other dimensions *)
  let tt = Circuits.Tow_thomas.make () in
  ignore (P.run ~points_per_decade:3 ~jobs:1 tt);
  let _, again, _ = campaign ~stride:1 1 in
  Alcotest.(check int) "a later campaign reuses no storage of an earlier one" first_allocs
    again;
  List.iteri
    (fun i (v : Testability.Matrix.view) ->
      List.iteri
        (fun j (r : Testability.Detect.result) ->
          if
            r.Testability.Detect.detectable <> exhaustive.Testability.Matrix.detect.(i).(j)
            || r.Testability.Detect.omega_det <> exhaustive.Testability.Matrix.omega.(i).(j)
          then
            Alcotest.failf "%s / %s: campaign differs from Detect.analyze"
              v.Testability.Matrix.label r.Testability.Detect.fault.Fault.id)
        (Testability.Detect.analyze ~criterion probe grid v.Testability.Matrix.netlist faults))
    views

(* ---- tolerance-space coverage sampling ---- *)

let coverage ?(samples = 64) ~jobs () =
  let b = Circuits.Tow_thomas.make () in
  let grid =
    Testability.Grid.around ~points_per_decade:4
      ~center_hz:b.Circuits.Benchmark.center_hz ()
  in
  let probe =
    {
      Testability.Detect.source = b.Circuits.Benchmark.source;
      output = b.Circuits.Benchmark.output;
    }
  in
  Testability.Montecarlo.coverage_run ~samples ~jobs ~component_tol:0.04
    ~epsilon:0.05 probe grid b.Circuits.Benchmark.netlist

let test_coverage_run_sound () =
  let c = coverage ~jobs:1 () in
  let module M = Testability.Montecarlo in
  Alcotest.(check int) "every draw lands in a stratum" c.M.samples
    (Array.fold_left ( + ) 0 c.M.stratum_samples);
  Array.iter
    (fun a ->
      Alcotest.(check bool) "acceptance is a probability" true
        (a >= 0.0 && a <= 1.0))
    c.M.stratum_accept;
  Alcotest.(check bool) "boundary radius clamped" true
    (c.M.boundary_radius >= 1.0 /. float_of_int c.M.strata
    && c.M.boundary_radius <= 1.0);
  Alcotest.(check bool) "averages are probabilities" true
    (c.M.worst_case >= 0.0 && c.M.worst_case <= 1.0
    && c.M.average_case >= 0.0 && c.M.average_case <= 1.0)

let test_coverage_run_jobs_invariant () =
  Alcotest.(check bool) "coverage stats independent of the worker count" true
    (coverage ~jobs:1 () = coverage ~jobs:4 ())

let test_coverage_run_validation () =
  let check_invalid what f =
    match f () with
    | _ -> Alcotest.fail (what ^ ": expected Invalid_argument")
    | exception Invalid_argument _ -> ()
  in
  let b = Circuits.Tow_thomas.make () in
  let grid =
    Testability.Grid.around ~points_per_decade:2
      ~center_hz:b.Circuits.Benchmark.center_hz ()
  in
  let probe =
    {
      Testability.Detect.source = b.Circuits.Benchmark.source;
      output = b.Circuits.Benchmark.output;
    }
  in
  let run ?samples ?strata ~epsilon () =
    Testability.Montecarlo.coverage_run ?samples ?strata ~component_tol:0.04
      ~epsilon probe grid b.Circuits.Benchmark.netlist
  in
  check_invalid "epsilon 0" (fun () -> run ~epsilon:0.0 ());
  check_invalid "strata 0" (fun () -> run ~strata:0 ~epsilon:0.05 ());
  check_invalid "samples < 2*strata" (fun () ->
      run ~samples:10 ~strata:8 ~epsilon:0.05 ())

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_refined_row_exact;
    QCheck_alcotest.to_alcotest qcheck_static_anchors_never_solved;
    Alcotest.test_case "adaptive pipeline = exhaustive (envelope)" `Quick
      test_pipeline_identity_envelope;
    Alcotest.test_case "adaptive pipeline = exhaustive (fixed)" `Quick
      test_pipeline_identity_fixed;
    Alcotest.test_case "adaptive pipeline = exhaustive (phase, phase-envelope, any-of)"
      `Quick test_pipeline_identity_other_criteria;
    Alcotest.test_case "streaming campaign: bounded workspaces, dead views free" `Quick
      test_streaming_campaign_bounded;
    Alcotest.test_case "CLI --adaptive leaves every table byte-identical" `Slow
      test_cli_adaptive_identity;
    Alcotest.test_case "CLI adaptive summary line parses and adds up" `Quick
      test_cli_summary_line_format;
    Alcotest.test_case "coverage_run accounting is sound" `Quick
      test_coverage_run_sound;
    Alcotest.test_case "coverage_run is jobs-invariant" `Quick
      test_coverage_run_jobs_invariant;
    Alcotest.test_case "coverage_run validates its arguments" `Quick
      test_coverage_run_validation;
  ]
