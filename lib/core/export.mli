(** Machine-readable export of optimization results (JSON), for CI
    pipelines and external tooling. *)

val metrics_to_json : Obs.Metrics.snapshot -> Report.Json.t
(** A metrics snapshot as [{counters: {...}, histograms: {...}}];
    non-finite histogram min/max (empty histograms) export as null. *)

val pipeline_to_json :
  ?metrics:Obs.Metrics.snapshot ->
  ?coverage:Testability.Montecarlo.coverage ->
  Pipeline.t -> Optimizer.report -> Report.Json.t
(** The full ordered-requirements report under ["report"]
    (coverages, essential configurations, minimal sets, both objective
    choices, and the detectability/ω matrices with fault-labelled
    columns), wrapped with circuit metadata (name, opamps, criterion,
    grid). The ["campaign"] block records the pruning counters.
    [coverage] adds a ["coverage"] block (a
    {!Testability.Montecarlo.coverage_run} result: sampling parameters,
    estimated boundary radius, per-stratum sample counts and
    acceptances, and the worst/average-case coverage); [metrics] adds
    a ["metrics"] block ({!metrics_to_json}) capturing the campaign's
    solver counters and phase timings. *)
