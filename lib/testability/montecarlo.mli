module Netlist := Circuit.Netlist

(** Monte-Carlo analysis of good-circuit response variation.

    Samples circuits whose passive components drift uniformly within
    ±[component_tol] and records the response deviation from nominal.
    Two uses:
    - validating the {!Detect.Process_envelope} threshold (the linear
      worst-case envelope should dominate sampled good circuits);
    - quantifying the false-alarm rate of the paper's fixed-ε test: a
      good circuit whose natural variation exceeds ε somewhere would be
      rejected as faulty.

    Every sample is swept on the campaign engine
    ({!Fastsim.drift_sweeper}) over one pool per call: a sample has the
    nominal circuit's sparse pattern, so it refactors under the nominal
    engine's symbolic analysis instead of running one of its own. *)

type stats = {
  samples : int;
  component_tol : float;
  max_dev : float array;
      (** Per grid frequency: the largest deviation any sample showed. *)
  mean_dev : float array;  (** Per grid frequency: mean deviation. *)
  per_sample_peak : float array;
      (** Per sample: its worst deviation over the whole grid. *)
}

val run :
  ?seed:int -> ?samples:int -> ?jobs:int -> component_tol:float ->
  Detect.probe -> Grid.t -> Netlist.t -> stats
(** Defaults: [seed] 42, [samples] 200, [jobs] 1. Deterministic for a
    fixed seed: the sample netlists are drawn from one sequential RNG
    stream and only the independent per-sample sweeps run on the
    [jobs]-domain scheduler ({!Util.Parallel}), so the statistics do
    not depend on the worker count. *)

val false_alarm_rate : stats -> epsilon:float -> float
(** Fraction of sampled good circuits a fixed-ε magnitude test would
    reject (their peak deviation exceeds [epsilon]). *)

(** {2 Tolerance-space importance sampling}

    {!run} samples the tolerance cube uniformly, which wastes almost
    every draw when the ε boundary sits deep inside (every draw
    accepts) or far outside (every draw rejects) the cube.
    {!coverage_run} stratifies the cube by ∞-norm radius — the common
    spread factor scaling all component drifts — probes where the ε
    boundary falls, and steers the draw budget toward the boundary
    stratum, where the accept/reject verdict actually varies. *)

type coverage = {
  samples : int;  (** total numeric sweeps, probe draws included *)
  strata : int;
  component_tol : float;
  epsilon : float;
  boundary_radius : float;
      (** estimated ∞-norm radius (fraction of [component_tol]) at
          which a typical drift first deviates by [epsilon]; clamped
          to \[1/strata, 1\] *)
  stratum_samples : int array;
      (** draws landing in each radius shell, length [strata] *)
  stratum_accept : float array;
      (** fraction of each shell's draws whose peak deviation stays
          within [epsilon], length [strata] *)
  worst_case : float;
      (** acceptance of the outermost shell — good circuits at full
          component spread *)
  average_case : float;
      (** shell-volume-weighted acceptance: the probability a uniform
          cube draw accepts, reconstructed from the stratified
          estimates (shell volume fractions of the ∞-norm ball,
          [((s+1)/K)^d - (s/K)^d] over [d] passives) *)
}

val coverage_run :
  ?seed:int -> ?samples:int -> ?strata:int -> ?jobs:int ->
  component_tol:float -> epsilon:float ->
  Detect.probe -> Grid.t -> Netlist.t -> coverage
(** Defaults: [seed] 42, [samples] 200, [strata] 8, [jobs] 1.
    Deterministic for a fixed seed and independent of [jobs]: every
    netlist is drawn from one sequential RNG stream and only the
    per-draw sweeps run on the scheduler, exactly as {!run}. A probe
    phase (at most 16 draws) at full spread locates the boundary
    radius; the remaining draws are allocated across the radius
    strata with weights peaked at the boundary stratum (floor of one
    draw per stratum, so every [stratum_accept] entry is estimated).
    Raises [Invalid_argument] when [strata <= 0],
    [samples < 2 * strata] or [epsilon <= 0]. *)
