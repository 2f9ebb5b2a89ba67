(** End-to-end flow on a benchmark circuit: multi-configuration
    transform → fault-simulation campaign over every test configuration
    → detectability matrices → ordered-requirements optimization.

    This is the programmatic equivalent of the paper's experimental
    procedure, with our MNA engine standing in for HSPICE. *)

type t = {
  benchmark : Circuits.Benchmark.t;
  dft : Multiconfig.Transform.t;
  grid : Testability.Grid.t;
  criterion : Testability.Detect.criterion;
  faults : Fault.t list;
  matrix : Testability.Matrix.t;
      (** Rows are the test configurations C₀ … C_{2ⁿ-2} in index
          order; ω values in [0, 1]. Always full-height: pruned rows,
          verdict rows included, are replicated from their group
          representative. *)
  input : Optimizer.input;  (** Same data, ω in percent. *)
  equivalence_groups : int;
      (** Number of cone classes simulated ({!Adaptive.stats.classes}):
          every dead configuration in one, the live ones by
          value-identical output-cone systems. *)
  pruned_configs : int;
      (** Configurations whose rows were replicated instead of
          simulated ([n_views − equivalence_groups]; 0 with
          [~prune:false]). *)
  certify : Analysis.Certify.t option;
      (** The interval-certification report over the representative
          views, when it was requested ([~certify:true]) and the
          criterion is certifiable ([Fixed_tolerance]); [None]
          otherwise. The campaign never reads it. *)
  adaptive : Adaptive.stats option;
      (** Solve accounting of the campaign driver over the
          representative rows; always [Some]. An option only because
          the campaign benchmark compiles against this shape. *)
}

val default_criterion : Testability.Detect.criterion
(** [Process_envelope { component_tol = 0.04; floor = 0.02 }] — the
    calibrated criterion under which our simulated biquad lands in the
    paper's regime (low functional coverage, 100 % with DFT, two
    2-configuration optima; see DESIGN.md §5). Pass
    [Fixed_tolerance 0.10] for the paper's literal Definition 1. *)

val run :
  ?criterion:Testability.Detect.criterion ->
  ?points_per_decade:int ->
  ?faults:Fault.t list ->
  ?follower_model:Circuit.Element.opamp_model ->
  ?jobs:int ->
  ?prune:bool ->
  ?certify:bool ->
  ?adaptive:bool ->
  Circuits.Benchmark.t ->
  t
(** Defaults: {!default_criterion}, the paper's +20 % deviation fault
    per passive component, and a grid spanning two decades either side
    of the benchmark's centre frequency with [points_per_decade]
    (default 30) points per decade. [follower_model] emulates
    follower-mode opamps as finite-GBW unity buffers instead of ideal
    ones (see {!Multiconfig.Transform.emulate}); [jobs] parallelizes
    the campaign across domains (see {!Adaptive.build}). The campaign
    picks its own solver per view ({!Testability.Fastsim.backend}
    [Auto]) and solves every grid point of a row that is not
    undetectable by definition ({!Testability.Detect.score_row});
    neither is a parameter.

    [prune] (default [true]) is passed to {!Adaptive.build}, which
    decides the campaign's cone classes, simulates one representative
    per class and replicates its rows, so the matrix is exactly the
    unpruned one; pass [~prune:false] to force every row through the
    solver. The skipped work is counted in {!field:pruned_configs} and
    in the [campaign.pruned_configs] metric.

    [certify] (default [false]) attaches the {!Analysis.Certify}
    report over the representative views when the criterion is a
    [Fixed_tolerance] ({!field:certify}); the proofs are a product of
    their own, not a campaign input — the matrices never depend on
    them. Other criteria leave {!field:certify} = [None].

    [adaptive] is accepted and ignored: the campaign benchmark still
    passes it. Every campaign solves every grid point. *)

val optimize : ?petrick_limit:int -> ?n_detect:int -> t -> Optimizer.report
