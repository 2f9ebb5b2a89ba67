(** The campaign driver: fills the detect/ω matrices of a (view ×
    fault) campaign, coarse-to-fine by default and exhaustively at
    [~stride:1].

    A uniform points-per-decade sweep spends most of its numeric solves
    far from any detectability boundary: inside a deviation region every
    point votes ['d'], outside every point votes ['u'], and only the
    handful of grid points straddling a threshold crossing carry
    information. {!build} therefore scores each (view × fault) row
    coarse-to-fine: the row starts at every [stride]-th grid point of
    the {e final} grid, then recursively bisects the intervals whose
    endpoint verdicts disagree (a crossing is known to be inside) {e
    and} the intervals whose endpoint margins sit too close to the
    threshold for their width — under a slope bound of [guard]
    ({!default_guard}) nepers per decade on the log deviation-to-threshold ratio, an interval of
    width [w] decades whose weaker endpoint margin satisfies [min |s_lo|
    |s_hi| > guard·w] (plus the exactly-known movement of the threshold
    and nominal profile inside the interval) cannot hide a crossing.
    Points inside an interval proved crossing-free inherit the shared
    endpoint verdict without being solved. Narrow resonance spikes and
    deviation-zero dips — regions a verdict-only bisection provably
    misses at any points-per-decade — announce themselves through the
    small margins of their shoulders, which is what the guard refines
    toward. Points below the view's measurement floor (notch bottoms,
    outputs left at round-off) are undetectable by definition and act
    as free static ['u'] anchors ({!Testability.Detect.anchor}). Two
    structural anchors extend them to whole rows, at every stride: a
    {e dead} view (its source cannot reach the output) is below the
    floor everywhere, and a fault on an {e isolated} passive (one that
    cannot affect the output) is undetectable everywhere — both cost
    zero solves.

    At [~stride:1] every point is a coarse point: the row is the
    exhaustive sweep, solved point by point, and no verdict is ever
    inherited. That is the [--no-adaptive] campaign.

    The refinement invariant at larger strides — the filled-in verdict
    row equals the exhaustive one byte for byte — is empirical, not
    proved: the slope bound is a calibrated constant, not a
    certificate, and a response steeper than {!default_guard} can hide
    a crossing. The tier-1 tests, the [adaptive-vs-exhaustive] fuzz
    oracle and the bench (DESIGN §15) find the detect/omega matrices
    bitwise identical to the stride-1 sweep and to the independent
    per-view {!Testability.Detect.analyze} reference on the campaigns
    they run — the default envelope criterion, and fixed thresholds at
    low grid density. The identity is known to fail for [phase:*]
    criteria at 8 or more points per decade: on leapfrog5 with
    [phase:0.1] and catastrophic faults at ppd 30, cell C198 ×
    R5a-short reads undetectable adaptively and detectable at stride
    1. Use [~stride:1] where the exact sweep matters. Coarse grids
    tighten automatically: the bound scales with interval width in
    decades, so fewer points per decade means wider intervals and
    earlier refinement.

    A row never solves a point twice, so its cost is bounded by its
    non-anchored points — the stride-1 sweep's cost — without a solve
    cap. Each view's engine picks its own factorization
    ({!Testability.Fastsim.backend} [Auto]). *)

type stats = {
  rows : int;  (** scored (view × fault) rows *)
  points : int;  (** rows × grid points *)
  solved : int;  (** points solved numerically *)
  skipped : int;
      (** points decided without a solve — filled from equal-verdict
          interval endpoints or below the measurement floor —
          [points - solved] *)
  bisections : int;  (** midpoint solves beyond the coarse pass *)
}

val default_stride : int
(** 8 — the coarse pass samples the final grid every 8th point, i.e. a
    ppd/8 starting grid. Coarse grids stay safe automatically: the
    slope-bound budget scales with interval width in decades, so at low
    points-per-decade nearly every interval fails the skip test and the
    sweep degrades toward exhaustive. *)

val default_guard : float
(** 12.0 nepers/decade (≈ 104 dB/decade) — the assumed bound on how
    fast the log deviation-to-threshold ratio can move along the log
    frequency axis. Calibrated against the registry's sharpest
    resonances (see DESIGN §15); raising it buys safety, lowering it
    buys skipped solves. {!build} always uses it. *)

(** The pure refinement core, factored out so the tier-1 property tests
    can drive it against precomputed exhaustive verdict rows without an
    engine. *)
module Refine : sig
  type outcome = {
    verdicts : Bytes.t;
        (** every byte decided (['d'] or ['u']), length [nf] *)
    solved : int list;  (** indices solved numerically, in solve order *)
    bisections : int;  (** solves issued by interval bisection *)
  }

  val row :
    nf:int ->
    stride:int ->
    step_dec:float ->
    guard:float ->
    steer_range:(int -> int -> float) ->
    anchor:(int -> char) ->
    solve:(int -> char * float) ->
    outcome
  (** Refine one verdict row of [nf] grid points. [anchor i] is the
      static seed byte for point [i] (['d'], ['u'] or ['?'] — unknown);
      the campaign passes the measurement-floor and structural anchors
      through it.
      [solve i] performs the numeric solve and returns its verdict
      byte plus its margin in nepers ({!Testability.Detect.score_point}
      — sign must agree with the byte; steering only). Solves the
      coarse points (every [stride]-th plus the last) that are not
      already anchored, then refines every interval between adjacent
      known points whose verdicts differ or whose weaker endpoint
      margin fails the slope-bound test [min |s_lo| |s_hi| >
      guard·step_dec·(hi-lo) + steer_range lo hi]. [step_dec] is the
      grid step in decades; [steer_range lo hi] (pass
      [fun _ _ -> 0.0] for a flat profile) is the exactly-known
      variation of the margin's static profile over the closed
      interval; a static anchor or a failed solve ([nan]) carries
      no margin and contributes zero to the test, so refinement stops
      at it rather than skipping past. Each point is solved at most
      once and only where its anchor is ['?'], so [solved] never
      exceeds the row's ['?'] anchors; at [~stride:1] it is exactly
      them — the exhaustive sweep of that row. Raises
      [Invalid_argument] on [nf <= 0],
      [stride <= 0], negative [step_dec]/[guard] or a byte outside the
      verdict alphabet. *)
end

val build :
  ?criterion:Testability.Detect.criterion ->
  ?jobs:int ->
  ?stride:int ->
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
    refines every (view × fault) row sequentially by {!Refine.row} —
    {!Testability.Detect.anchor} seeds it, single-point
    {!Testability.Detect.score_point} solves feed it and
    {!Testability.Detect.steer_range} bounds its profile, under the
    {!default_guard} slope bound — keeps the verdict bytes and per-row
    tallies, and releases the engine. A
    fault's back-solve column is solved the first time a row reads it
    at that frequency, so the points refinement skips cost no
    back-solve. [jobs] > 1 spreads the view tasks over that many
    domains, so at most [jobs] engines are live at once; results are
    identical to a sequential run. Each view's engine factors through
    the backend {!Testability.Fastsim.backend} [Auto] selects from its
    size and density.

    [stride] defaults to {!default_stride}; [~stride:1] is the
    exhaustive sweep.

    Counters — incremented sequentially after the view tasks, so they
    are jobs-invariant by construction:
    [adaptive.solves_skipped] (points decided without solving),
    [adaptive.bisections], [campaign.isolated_rows] ((view, fault) rows whose fault is
    isolated — on an unpruned campaign, exactly
    {!Analysis.Detectability.skip_count}) and [campaign.dead_views].
    Raises [Invalid_argument] on a non-positive [stride]. *)
