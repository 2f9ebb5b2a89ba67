(* End-to-end campaign timings: wall-clock seconds for Pipeline.run
   (transform + 2ⁿ−1 configuration emulations + fault simulation +
   detectability matrices) per benchmark and worker count. These are
   the numbers the engine optimizations exist for, so they are timed
   whole rather than via bechamel micro-runs.

   Every case is swept over jobs ∈ {1, 2, 4} — including smoke mode —
   so each report carries the parallel-scaling picture next to the
   absolute numbers: speedup = t(jobs=1)/t(jobs=n) and efficiency =
   speedup/effective_jobs for the same circuit and grid, where
   effective_jobs is the worker count after Util.Parallel's hardware
   clamp. On a machine with fewer cores than requested workers the
   clamp makes the extra rows degenerate to a smaller schedule;
   normalizing by the clamped count keeps the efficiency column about
   the engine rather than the runner — and a clamped run that is
   *slower* than jobs=1 is exactly the oversubscription bug the clamp
   exists to prevent (the --baseline gate fails on it).

   Each case is timed twice: once with the observability sinks
   disabled (the headline number — instrumentation must be free when
   off) and once with Obs.Metrics enabled, which also yields the
   solver-counter columns for BENCH_<date>.json. *)

module P = Mcdft_core.Pipeline

type row = {
  label : string;
  case : string;  (* label minus the jobs suffix — keys the jobs sweep *)
  jobs : int;
  seconds : float;  (* metrics disabled — the headline number *)
  seconds_metrics_on : float;
  counters : (string * int) list;
}

let time_s f =
  let t0 = Unix.gettimeofday () in
  ignore (f ());
  Unix.gettimeofday () -. t0

(* Best-of-two for the headline number: the variance that matters on a
   shared runner is one-sided (page-fault storms, a neighbour burning
   the core), so the minimum is the better estimator of the workload's
   actual cost than the mean. *)
let time_best2_s f = Float.min (time_s f) (time_s f)

(* The counters worth a column: solver mix, scheduler activity, and
   the campaign's own economies (adaptive refinement, equivalence
   pruning and the structural anchors: isolated rows and dead views). *)
let counter_columns =
  [
    "adaptive.solves_skipped";
    "adaptive.bisections";
    "campaign.equivalence_groups";
    "campaign.pruned_configs";
    "campaign.isolated_rows";
    "campaign.dead_views";
    "fastsim.smw_solves";
    "fastsim.full_solves";
    "fastsim.refine_steps";
    "fastsim.structural_faults";
    "fastsim.wcache_hits";
    "fastsim.wcache_misses";
    "mna.fills";
    "parallel.chunks";
    "parallel.steals";
  ]

let jobs_sweep = [ 1; 2; 4 ]

(* [(label, seconds)] rows. Smoke mode keeps CI fast: the biquad only,
   a coarse grid — but still the full jobs sweep, so the scaling gate
   has data to act on. *)
let rows ~smoke () =
  let cases =
    if smoke then [ (Circuits.Tow_thomas.make (), 10) ]
    else
      [ (Circuits.Tow_thomas.make (), 30); (Circuits.Leapfrog.make (), 30) ]
  in
  List.concat_map
    (fun (b, ppd) ->
      List.map
        (fun jobs ->
          let run () = P.run ~points_per_decade:ppd ~jobs b in
          (* One untimed warm-up per case, and Gc.full_major (not
             compact) between timings: the first run of a large case
             in a fresh process pays hundreds of thousands of minor
             page faults while the heap's OS pages are mapped and
             settled (observed 3-5x wall-clock on the first leapfrog
             run, dropping to a stable floor once warm), and
             compaction returns those pages to the OS — re-raising the
             fault storm for the very next run. full_major still
             collects the previous case's garbage, so a timing does
             not inherit GC debt, but keeps the pools mapped. *)
          Obs.Metrics.set_enabled false;
          ignore (run ());
          Gc.full_major ();
          let seconds = time_best2_s run in
          Gc.full_major ();
          Obs.Metrics.reset ();
          Obs.Metrics.set_enabled true;
          let gc0 = Gc.quick_stat () in
          let seconds_metrics_on = time_s run in
          let gc1 = Gc.quick_stat () in
          Obs.Metrics.set_enabled false;
          let snap = Obs.Metrics.snapshot () in
          Obs.Metrics.reset ();
          let case =
            Printf.sprintf "campaign/%s ppd=%d" b.Circuits.Benchmark.name ppd
          in
          {
            label = Printf.sprintf "%s jobs=%d" case jobs;
            case;
            jobs;
            seconds;
            seconds_metrics_on;
            counters =
              List.map (fun c -> (c, Obs.Metrics.counter snap c)) counter_columns
              (* GC activity of the metrics-on run (the calling
                 domain's view): with the off-heap solver state, a
                 warmed campaign should barely move these. *)
              @ [
                  ( "gc.minor_words",
                    int_of_float (gc1.Gc.minor_words -. gc0.Gc.minor_words) );
                  ( "gc.major_collections",
                    gc1.Gc.major_collections - gc0.Gc.major_collections );
                ];
          })
        jobs_sweep)
    cases

(* Parallel efficiency of a row against its jobs=1 sibling in the same
   sweep: speedup/effective_jobs, where speedup = t(jobs=1)/t(this
   row) and effective_jobs is the worker count the scheduler really
   ran after the hardware clamp (Util.Parallel.effective_jobs).
   Normalizing by the requested count would report 1/jobs on any
   machine with fewer cores than requested — a statement about the
   runner, not the engine. Normalizing by the clamped count makes the
   metric machine-honest: on a big machine it is the classic
   speedup/jobs; on a small one a clamped row measures pure scheduling
   overhead and should sit near 1.0. [None] when the sweep has no
   jobs=1 sibling or its timing is degenerate. *)
let efficiency rows r =
  match
    List.find_opt (fun r1 -> r1.case = r.case && r1.jobs = 1) rows
  with
  | Some r1 when r.seconds > 0.0 && r1.seconds > 0.0 ->
      Some
        (r1.seconds /. r.seconds
        /. float_of_int (Util.Parallel.effective_jobs r.jobs))
  | _ -> None

let print_rows rows =
  print_endline "\n==== CAMPAIGN: end-to-end Pipeline.run timings ====\n";
  let header =
    [
      "campaign"; "time (s)"; "metrics on (s)"; "speedup"; "eff"; "smw"; "full";
      "chunks"; "steals"; "gc minor words";
    ]
  in
  let printable =
    List.map
      (fun r ->
        let c name = string_of_int (List.assoc name r.counters) in
        let speedup, eff =
          match efficiency rows r with
          | Some e ->
              ( Printf.sprintf "%.2fx"
                  (e *. float_of_int (Util.Parallel.effective_jobs r.jobs)),
                Printf.sprintf "%.2f" e )
          | None -> ("-", "-")
        in
        [
          r.label;
          Printf.sprintf "%.3f" r.seconds;
          Printf.sprintf "%.3f" r.seconds_metrics_on;
          speedup;
          eff;
          c "fastsim.smw_solves";
          c "fastsim.full_solves";
          c "parallel.chunks";
          c "parallel.steals";
          c "gc.minor_words";
        ])
      rows
  in
  print_endline (Report.Table.render ~header printable)

let all ~smoke () =
  let rows = rows ~smoke () in
  print_rows rows;
  rows
