(** The campaign driver: fills the detect/ω matrices of a (view ×
    fault) campaign by deciding every grid point of every row — the
    paper's fault simulation of every configuration over the whole
    frequency region (§3).

    A point is decided in one of two ways. Points undetectable by
    definition are static ['u'] anchors, known without a solve
    ({!Testability.Detect.anchor}): a point below the view's
    measurement floor (notch bottoms, outputs left at round-off), every
    point of a {e dead} view (its source cannot reach the output) and
    every point of a fault on an {e isolated} passive (one that cannot
    affect the output). Every other point is solved and decided by
    {!Testability.Detect.score_point}. No verdict is inferred from its
    neighbours, so the matrices equal the independent per-view
    {!Testability.Detect.analyze} reference bit for bit; the tier-1
    tests and the [campaign-vs-analyze] fuzz oracle check that. Each
    view's engine picks its own factorization
    ({!Testability.Fastsim.backend} [Auto]).

    The module's name, the span names [adaptive.build],
    [adaptive.prepare <label>] and [adaptive.reduce], and the {!stats}
    record stay only because the campaign benchmark compiles against
    them (DESIGN §15). *)

type stats = {
  points : int;  (** rows × grid points *)
  solved : int;  (** points solved numerically; the rest are anchors *)
  bisections : int;
      (** always 0; kept only because the campaign benchmark reads it *)
}

val build :
  ?criterion:Testability.Detect.criterion ->
  ?jobs:int ->
  Testability.Grid.t ->
  Testability.Matrix.view list ->
  Fault.t list ->
  Testability.Matrix.t * stats
(** Run the fault-simulation campaign over every (view, fault) pair.
    Views stream through one task each: the task prepares the view on
    engine storage recycled through a pool that the campaign owns and
    drops when it returns ({!Testability.Detect.with_view}:
    structural anchors first — a dead view builds no engine, no nominal
    sweep and no plans — then the engine, nominal sweep and thresholds,
    with only the envelope's drifts block-warmed), plans its faults,
    decides every point of every (view × fault) row — the
    {!Testability.Detect.anchor} byte where it is static, one
    {!Testability.Detect.score_point} solve everywhere else — keeps the
    verdict bytes and per-row solve counts, and releases the engine. A
    fault's back-solve column is solved the first time a point reads it
    at that frequency. [jobs] > 1 spreads the view tasks over that many
    domains, so at most [jobs] engines are live at once; results are
    identical to a sequential run.

    Counters — incremented sequentially after the view tasks, so they
    are jobs-invariant by construction: [campaign.isolated_rows]
    ((view, fault) rows whose fault is isolated — on an unpruned
    campaign, exactly {!Analysis.Detectability.skip_count}) and
    [campaign.dead_views]. *)
