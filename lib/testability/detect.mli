module Netlist := Circuit.Netlist

(** Fault detectability analysis (paper Definitions 1 and 2).

    For each fault, the fault-free and faulty frequency responses are
    compared point-wise on a grid. A fault is {e detectable} when its
    response deviation exceeds a threshold at some frequency; its
    {e ω-detectability} is the log-frequency measure of the region
    where it does, normalized by the full grid width.

    Criteria combine a deviation metric with a threshold model:
    - {!Fixed_tolerance} is the paper's Definition 1 verbatim — the
      relative magnitude deviation against a frequency-independent ε;
    - {!Process_envelope} refines the paper's stated intent for ε
      ("take into account possible fluctuations in the process
      environment"): at each frequency the threshold is the worst-case
      deviation a {e good} circuit can exhibit when every component
      drifts by the process tolerance, plus a measurement floor.
      Reconfiguration then helps for a structural reason the fixed-ε
      model cannot express: follower-mode opamps isolate sub-networks,
      which both shrinks the good-circuit envelope and amplifies the
      fault's signature;
    - {!Phase_fixed} / {!Phase_envelope} are the same two models on the
      phase response (radians) — an extension for phase-sensitive test
      setups;
    - {!Any_of} declares a fault detectable wherever any sub-criterion
      fires (region union), e.g. magnitude-or-phase testing.

    Every criterion is subject to the {e measurement floor}: a grid
    point whose nominal response magnitude falls below the view's floor
    ([max (1e-12 × peak, 1e-13)] — 1e-12 of the view's peak response,
    with an absolute backstop) has no usable reference, so its relative
    deviation is a ratio of floating-point residues and any verdict
    computed from it would be numerical noise, not testability. Such
    points are {e undetectable by definition}, failed solves included —
    a reconfiguration that disconnects the probed output yields an
    all-['u'] row deterministically instead of verdict flicker (DESIGN
    §15).

    The floor has two {e structural} extensions, decided once per view
    by one {!Circuit.Influence} fixpoint and exact whatever the element
    values:
    - a {e dead} view — one whose source cannot reach the output — has
      a nominal response of exactly zero, so every one of its points is
      below the floor, whatever floating-point residue its computed
      response carries;
    - a fault on an {e isolated} passive — one that cannot affect the
      output — moves the output by exactly zero, so its whole row is
      undetectable by definition and is never solved.

    Two scoring paths apply these rules, each in one place: the
    campaign path ({!anchor} decides the static points, {!score_point}
    solves and decides the others, {!result_of_verdicts} reduces), and
    the independent reference {!analyze}, which the differential
    oracles compare it against. *)

type probe = { source : string; output : string }
(** Where the test stimulus enters and where the response is read. *)

type criterion =
  | Fixed_tolerance of float
      (** Definition 1: detectable where |ΔT|/|T| > ε. *)
  | Process_envelope of { component_tol : float; floor : float }
      (** Detectable where |ΔT|/|T| exceeds the linear worst-case
          good-circuit envelope plus [floor]. The envelope sums the
          deviations of one [+component_tol] drift per passive that can
          affect the output; the other passives' drifts move the output
          by exactly zero and are not simulated. *)
  | Phase_fixed of float
      (** Detectable where the wrapped phase deviation exceeds the
          given angle (radians). *)
  | Phase_envelope of { component_tol : float; floor_rad : float }
      (** Envelope model on the phase deviation. *)
  | Any_of of criterion list
      (** Union of the sub-criteria's detectability regions. *)

type result = {
  fault : Fault.t;
  detectable : bool;  (** Definition 1. *)
  omega_det : float;  (** Definition 2, in [0, 1]. *)
  regions : Util.Interval.Set.t;
      (** Detectability region Ω_detection, in log10(Hz) coordinates. *)
}

val default_tolerance : float
(** ε = 0.10, the paper's setting. *)

val default_criterion : criterion
(** [Fixed_tolerance default_tolerance]. *)

val drift_tolerances : criterion -> float list
(** The component tolerance of each envelope in the criterion, one per
    envelope: a view's thresholds drift every passive that can reach
    the output once per entry. Empty for fixed-threshold criteria. *)

val response_deviation : nominal:Complex.t array -> faulty:Complex.t array -> float array
(** Point-wise relative magnitude deviation | |Tf| - |T0| | / |T0|.
    Infinite when the nominal response is exactly zero at a point and
    the faulty one is not. *)

val phase_deviation : nominal:Complex.t array -> faulty:Complex.t array -> float array
(** Point-wise wrapped phase difference |∠Tf - ∠T0| in [0, π]. *)

val nominal_response : probe -> Grid.t -> Netlist.t -> Complex.t array
(** The fault-free sweep; exposed so callers can reuse it across many
    faults. *)

type prepared_view
(** One circuit view readied for a fault campaign: the view's
    structural anchors and measurement floor, the fault-simulation
    engine, its nominal response and the instantiated thresholds. *)

val prepare_view :
  ?backend:Fastsim.backend ->
  ?criterion:criterion ->
  probe -> Grid.t -> Netlist.t -> prepared_view
(** Build the structural anchors, engine and thresholds for one view
    (default criterion {!default_criterion}). Deadness is decided from
    the structure first: a dead view builds no engine, runs no nominal
    sweep and builds no envelope, so a dead view whose system is
    singular raises nothing — its rows are all ['u'] whatever the
    solver would have said. On a live view, before any threshold is
    computed, the engine's back-solve cache is warmed for the
    envelope's drifts ({!Fastsim.warm_cache}, one block back-solve per
    frequency), restricted to passives that can affect the output,
    because the envelope reads each of them at every frequency. Faults
    are not warmed: each of their back-solves runs the first time a
    score reads it, so a point {!anchor} decides costs no back-solve.
    The view can be scored
    from several domains concurrently ({!Fastsim}'s cache is safe to
    fill in parallel, and {!score_point} solves into per-domain
    buffers). Raises like {!analyze}: {!Mna.Ac.Singular_circuit} when
    the fault-free system of a live view, or a drifted good circuit of
    its envelope (only drifts that can reach the output are
    simulated), is singular at a grid frequency. *)

val with_view :
  pool:Fastsim.pool ->
  ?criterion:criterion ->
  probe -> Grid.t -> Netlist.t -> (prepared_view -> 'a) -> 'a
(** [with_view ~pool … netlist f] is [f] applied to what
    {!prepare_view} builds, with the engine on storage recycled through
    [pool] ({!Fastsim.with_engine}): the view lives only inside the bracket,
    and scoring one of its live points afterwards raises
    [Invalid_argument]. Results are bitwise equal to {!prepare_view}'s.
    A dead view builds no engine here either. *)

val view_dead : prepared_view -> bool
(** Whether the view's source cannot reach its output — a dead view,
    every point of which is below the measurement floor. *)

type plan
(** One fault readied for scoring against one view. *)

val plan_fault : prepared_view -> Fault.t -> plan
(** Classify and prepare one fault against the view's engine
    ({!Fastsim.plan_of}); build each (view, fault) plan exactly once.
    A fault on an isolated passive gets no engine plan at all. Raises
    {!Fault.Unknown_element} when the fault's element is absent. *)

val plan_isolated : plan -> bool
(** Whether the fault's element is a passive that cannot affect the
    view's output: its row is all ['u'] by definition. *)

val anchor : prepared_view -> plan -> int -> char
(** The static verdict of grid point [k]: ['u'] where the point is
    undetectable by definition — an isolated fault, a dead view, or a
    point below the view's measurement floor — and ['?'] where only a
    solve can decide it. The campaign driver takes the ['u'] points as
    they are and solves every ['?'] point with {!score_point}; no
    verdict is ever inferred from a neighbouring point. *)

val score_point : prepared_view -> plan -> int -> char
(** Solve grid point [k] of one fault's row and decide it: ['d'] when
    some prepared sub-criterion's deviation exceeds its threshold or
    the solve fails (singular faulty system), ['u'] otherwise. A point
    {!anchor} decides is ['u'] without a solve. Verdicts reduce through
    {!result_of_verdicts} to exactly {!analyze}'s results. Safe to call
    from several domains on one view. *)

val result_of_verdicts : Grid.t -> Fault.t -> Bytes.t -> result
(** Reduce a fully decided verdict row (every byte ['d'] or ['u'],
    one per grid point) to a {!result} without any simulation — the
    same interval bookkeeping as {!analyze}. Raises
    [Invalid_argument] on a length mismatch or a residual ['?']
    byte. *)

val analyze :
  ?backend:Fastsim.backend ->
  ?criterion:criterion -> probe -> Grid.t -> Netlist.t -> Fault.t list -> result list
(** Analyze a fault list against one circuit: one {!prepare_view}, then
    per fault a whole boxed faulty response reduced point by point —
    the independent reference for the campaign path ({!anchor},
    {!score_point}), sharing nothing with it past preparation. A
    frequency where the faulty circuit has no solution (singular
    system) counts as detectable — the response is wildly wrong, not
    merely deviated — unless the point sits below the measurement
    floor, which overrides everything. A fault on an isolated passive,
    and any fault of a dead view, is undetectable without a solve.
    Raises {!Fault.Unknown_element} when a fault's element is
    absent. *)

val minimal_detectable_deviation :
  ?criterion:criterion -> ?max_factor:float ->
  probe -> Grid.t -> Netlist.t -> element:string -> float option
(** The smallest multiplicative deviation factor above 1 whose fault on
    [element] is detectable, found by bisection on the log-factor (20
    iterations, ~1e-4 relative resolution); [None] when even
    [max_factor] (default 10, i.e. +900 %) stays undetected. Assumes
    detectability is monotone in the deviation size, which holds for
    the circuits of this library away from exact response crossings. *)

val fault_coverage : result list -> float
(** Fraction of faults with [detectable = true]; 0 on the empty list. *)

val average_omega_det : result list -> float
(** Mean ω-detectability over the fault list; 0 on the empty list. *)
