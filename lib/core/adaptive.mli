(** The campaign driver: fills the detect/ω matrices of a (view ×
    fault) campaign by deciding every grid point of every row — the
    paper's fault simulation of every configuration over the whole
    frequency region (§3).

    A view's (view × fault) rows are scored by one
    {!Testability.Detect.score_rows} call. Points undetectable by
    definition are ['u'] without a solve: a point below the view's
    measurement floor (notch bottoms, outputs left at round-off), every
    point of a {e dead} view (its source cannot reach the output) and
    every point of a fault on an {e isolated} passive (one that cannot
    affect the output). One engine sweep solves every other point of the
    view's rows. Views whose rows are provably identical — a {e cone class} —
    are simulated once ({!build}), and this module is the one place
    that grouping is decided: the pipeline, trajectory and dictionary
    campaigns and the conformance oracles all share it. No verdict is
    inferred from its neighbours, so the matrices equal the independent
    per-view {!Testability.Detect.analyze} reference bit for bit; the
    tier-1 tests and the [campaign-vs-analyze] fuzz oracle check that.
    Each view's engine factors its own system: sparse LU under its own
    Markowitz analysis ({!Testability.Fastsim.create}).

    The module's name, the span names [adaptive.build],
    [adaptive.prepare <label>], [adaptive.reduce] and [pipeline.prune]
    (the structures and classes), and the {!stats} record stay only
    because the campaign benchmark compiles against them (DESIGN §15). *)

type stats = {
  points : int;  (** simulated rows × grid points *)
  solved : int;
      (** points solved numerically; the rest are undetectable by
          definition *)
  bisections : int;
      (** always 0; kept only because the campaign benchmark reads it *)
  classes : int list list;
      (** The cone classes: view indices, each class ascending, classes
          ordered by first member. The first member of each class is
          the one simulated, its {e representative}; a singleton per
          view with [~prune:false]. *)
}

val build :
  ?criterion:Testability.Detect.criterion ->
  ?jobs:int ->
  ?prune:bool ->
  Testability.Grid.t ->
  Testability.Matrix.view list ->
  Fault.t list ->
  Testability.Matrix.t * stats
(** Run the fault-simulation campaign over every (view, fault) pair.

    Each view's {!Testability.Detect.structure} is built first (one
    influence analysis per view). [prune] (default [true]) then groups
    the views into {e cone classes} ({!stats.classes}) and simulates
    one representative per class: every dead view forms one class, and
    live ones share a class when their engine systems are
    value-identical up to row sign with every fault-touched row locked
    ({!Analysis.Lint.value_signature}) and their probes and passives
    sit on the same entries with the same values
    ({!Testability.Detect.passive_layout}); with a fault on an element
    other than a passive in the list, every engine solves its whole
    view and the whole views' systems are compared. Each member's rows
    are its representative's — verdict bytes, deviation rows and
    nominal shared, detect and ω rows copied — so the matrix is
    full-height and exactly the one [~prune:false] builds by simulating
    every view. Raises {!Fault.Unknown_element} when a fault names an
    element absent from any view, simulated or not.

    Representatives stream through one task each: the task prepares the
    view on engine storage recycled through a pool that the campaign
    owns and drops when it returns ({!Testability.Detect.with_view}:
    structural anchors first — a dead view builds no engine, no nominal
    sweep and no plans — then the engine on the view's output cone and
    its nominal sweep), plans its faults, scores every (view × fault)
    row with one {!Testability.Detect.score_rows} call — one engine
    sweep over the envelope's drifts and the fault rows, which sums the
    thresholds and decides every point — keeps the verdict
    bytes ({!Testability.Matrix.verdicts}), the deviation rows
    ({!Testability.Matrix.deviations}), the view's measured nominal
    ({!Testability.Matrix.nominal}) and per-row solve counts, and
    releases the engine. At each frequency the sweep solves the
    back-solve columns its rows read as one block. [jobs] > 1 spreads
    the view tasks over that many domains, so at most [jobs] engines
    are live at once; the pool sizes every workspace for the
    campaign's largest engine, so at most [jobs] workspaces are
    allocated. Results are identical to a sequential run.

    Counters — incremented sequentially, so they are jobs-invariant by
    construction: [campaign.equivalence_groups] (classes) and
    [campaign.pruned_configs] (views not simulated), then, over the
    simulated views, [campaign.isolated_rows] ((view, fault) rows whose
    fault is isolated — on an unpruned campaign, exactly
    {!Analysis.Detectability.skip_count}), [campaign.dead_views] and
    [campaign.cone_fallbacks] (live views whose engine solves the whole
    view instead of its output cone: the cone is not certified, its
    system is singular where the view's is not, or a fault in the list
    is on an element other than a passive). *)
