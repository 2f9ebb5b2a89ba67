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
    §15). A view whose output cancels — within its own round-off bound
    at every grid point ({!Fastsim.output_cancels}) — is
    {e numerically dead}: every computed value is round-off, and all of
    its points are below the floor. A response that is merely small is
    measured, and the probe source's declared value plays no part.

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
    campaign path ({!score_rows} decides every (view × fault) row of a
    view with one engine sweep, {!result_of_verdicts} reduces each),
    and the independent reference {!analyze}, one engine response per
    row, which the differential oracles compare it against. *)

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

val default_criterion : criterion
(** [Fixed_tolerance 0.10]: ε = 0.10, the paper's setting. *)

val response_deviation : nominal:Complex.t array -> faulty:Complex.t array -> float array
(** Point-wise relative magnitude deviation | |Tf| - |T0| | / |T0|.
    Infinite when the nominal response is exactly zero at a point and
    the faulty one is not. *)

val phase_deviation : nominal:Complex.t array -> faulty:Complex.t array -> float array
(** Point-wise wrapped phase difference |∠Tf - ∠T0| in [0, π]. *)

val nominal_response : probe -> Grid.t -> Netlist.t -> Complex.t array
(** The fault-free sweep; exposed so callers can reuse it across many
    faults. *)

type structure
(** One view's structural facts, from one {!Circuit.Influence}
    fixpoint: whether it is dead, which passives can reach the output,
    and the netlist its engine solves — the view's output cone
    ({!Circuit.Influence.cone}) wherever the cone is certified, the
    whole view otherwise. The cone's system fixes the output exactly in
    exact arithmetic (DESIGN §13), so a view whose system is singular
    only outside its cone is solved like any other, as a dead view
    always was. A live view's structure also holds that netlist's
    index and sparse stamp run under [Only source]
    ({!Mna.Stamps.build_sparse}), from which {!class_key} is read and
    on which {!with_view} builds the engine. *)

val structure : ?faults:Fault.t list -> probe -> Netlist.t -> structure
(** The view's structure for a campaign over [faults] (default none).
    A fault on an element other than a passive (an opamp, a source)
    can change which nodes the output depends on, so when [faults]
    holds one the engine solves the whole view — counted as a
    fallback ({!view_fallback}). Planning such a fault on a structure
    built without it raises [Invalid_argument]. *)

val engine_netlist : structure -> Netlist.t
(** The netlist a live view's engine solves: its certified output cone,
    or the view itself. *)

val engine_dim : structure -> int
(** The MNA dimension of {!engine_netlist}; 0 for a dead view, which
    builds no engine. *)

val class_key : locked:(string -> bool) -> structure -> string
(** The view's cone-class key, a binary string read from the
    structure's stamp run and its index: ["dead"] for a dead view;
    otherwise the engine system's {!Mna.Stamps.signature} with the rows
    of every element [locked] names locked, then the probe (source and
    output names, and the output's position in the engine's index) and
    every passive of {!engine_netlist} with its value bits, its stamp
    pattern in that index and whether it can affect the output. Two
    views with equal keys read the same unknown of engine systems that
    agree up to row sign, with every locked row unflipped, and perturb
    the same entries by the same amounts under every fault on a passive
    [locked] names, so a campaign that locks its fault universe can
    solve one of them for both. *)

type prepared_view
(** One circuit view readied for a fault campaign: the view's
    structure (dead or live, isolated passives) and measurement floor,
    the fault-simulation engine, its nominal response and the
    criterion. The criterion's thresholds are instantiated where rows
    are scored ({!score_rows}, {!analyze}). *)

val prepare_view :
  ?criterion:criterion ->
  ?faults:Fault.t list ->
  probe -> Grid.t -> Netlist.t -> prepared_view
(** Build the structural facts and engine for one view (default
    criterion {!default_criterion}). Deadness is decided from
    the structure first: a dead view builds no engine, runs no nominal
    sweep and builds no envelope, so a dead view whose system is
    singular raises nothing — its rows are all ['u'] whatever the
    solver would have said. A live view's engine solves its output
    cone; it solves the whole view instead (a {e fallback},
    {!view_fallback}) where the cone is not certified, or where the
    cone's system is singular and the view's is not, or [faults] holds
    a fault on an element other than a passive ({!structure}). Every
    point of a live view whose output cancels
    ({!Fastsim.output_cancels}) is masked. The view can be scored from
    several domains concurrently (its engine is read-only, and
    {!score_rows} sweeps into buffers of its own). Raises
    {!Mna.Ac.Singular_circuit} when the fault-free system of a live
    view's engine (the whole view's, once the cone's is singular) is
    singular at a grid frequency. *)

val with_view :
  pool:Fastsim.pool ->
  ?criterion:criterion ->
  probe -> Grid.t -> structure -> (prepared_view -> 'a) -> 'a
(** [with_view ~pool … probe grid (structure probe netlist) f] is [f]
    applied to what {!prepare_view} builds for [netlist], with the
    engine built on the structure's index and stamp run, on storage
    recycled through [pool] ({!Fastsim.with_engine}):
    the view lives only inside the bracket, and scoring one of its live
    rows afterwards raises [Invalid_argument]. Results are bitwise
    equal to {!prepare_view}'s. A dead view builds no engine here
    either. *)

val view_dead : prepared_view -> bool
(** Whether the view's source cannot reach its output — a dead view,
    every point of which is below the measurement floor. *)

val view_fallback : prepared_view -> bool
(** Whether the live view's engine solves the whole view instead of its
    output cone: the cone is not certified, its system is singular
    while the view's is not, or a fault to be solved is on an element
    other than a passive. *)

type plan
(** One fault readied for scoring against one view. *)

val plan_fault : prepared_view -> Fault.t -> plan
(** Classify and prepare one fault against the view's engine
    ({!Fastsim.plan_of}); build each (view, fault) plan exactly once.
    A fault on an isolated passive gets no engine plan at all. Raises
    {!Fault.Unknown_element} when the fault's element is absent, and
    [Invalid_argument] for a fault on an element other than a passive
    when the engine solves the output cone ({!structure}). *)

val plan_isolated : plan -> bool
(** Whether the fault's element is a passive that cannot affect the
    view's output: its row is all ['u'] by definition. *)

val below_floor : prepared_view -> int -> bool
(** Whether grid point [k] is undetectable by definition for every
    fault that is not isolated: the view is dead, or the point's
    nominal response sits below the view's measurement floor. *)

val score_rows : prepared_view -> plan array -> (Bytes.t * float array * int) array
(** Decide every grid point of each plan's row: the verdict bytes (one
    per grid point, ['d'] or ['u']), the signed magnitude deviation row
    and the number of points solved, one triple per plan, in order. A
    fault on an isolated passive, and any fault of a dead view, gives
    all ['u'] and an all-zero deviation row with no solve and without
    touching an engine. Every other row goes through one
    {!Fastsim.sweep}, together with the envelope's drifts (one
    [+component_tol] deviation per passive that can affect the output,
    per envelope sub-criterion, at every grid point): fault rows skip
    the points {!below_floor}, which are ['u'] with deviation 0, and
    share each frequency's back-solves with the drifts and with each
    other. The envelope thresholds are summed from the drift rows; a
    solved point is then ['d'] when some sub-criterion's deviation
    exceeds its threshold or the solve fails (singular faulty system),
    ['u'] otherwise. Its deviation is {!signed_deviation} of the faulty
    [|H|] against the nominal, or 1e3 where the solve fails. No
    verdict is inferred from a neighbouring point. Verdicts reduce
    through {!result_of_verdicts} to exactly {!analyze}'s results,
    whatever rows are scored together; the deviations do not depend on
    the criterion. Raises {!Mna.Ac.Singular_circuit} when a drifted
    good circuit is singular at a grid frequency. Safe to call from
    several domains on one view. *)

val signed_deviation : nominal:float -> float -> float
(** [signed_deviation ~nominal m] is [(m − nominal) / max nominal 1e-12]:
    the signed relative magnitude deviation of a faulty [|H| = m] from
    the nominal [|H|], as {!score_rows} records it. *)

val measured_nominal : prepared_view -> float array
(** The nominal [|H|] at every grid point, 0 at the points
    {!below_floor} — every point of a dead or numerically dead view. *)

val result_of_verdicts : Grid.t -> Fault.t -> Bytes.t -> result
(** Reduce a verdict row (one byte per grid point, ['d'] where the
    fault is detectable) to a {!result} without any simulation — the
    same interval bookkeeping as {!analyze}. Raises [Invalid_argument]
    on a length mismatch. *)

val analyze :
  ?criterion:criterion -> probe -> Grid.t -> Netlist.t -> Fault.t list -> result list
(** Analyze a fault list against one circuit: one {!prepare_view}, then
    per fault a whole boxed faulty response reduced point by point —
    the independent reference for the campaign path ({!score_rows}),
    whose many-row sweep it checks; its envelope thresholds come from
    a sweep of the drifts alone. A
    frequency where the faulty circuit has no solution (singular
    system) counts as detectable — the response is wildly wrong, not
    merely deviated — unless the point sits below the measurement
    floor, which overrides everything. A fault on an isolated passive,
    and any fault of a dead view, is undetectable without a solve.
    Raises {!Fault.Unknown_element} when a fault's element is
    absent, and {!Mna.Ac.Singular_circuit} like {!prepare_view} and
    {!score_rows}. *)

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
