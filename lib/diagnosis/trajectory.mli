(** Fault location by nearest response trajectory.

    Where {!Dictionary} stores binary pass/fail signatures, this module
    keeps the {e analog} shape of each fault's response: the signed
    relative magnitude deviation from nominal at every (configuration,
    frequency) measurement — the fault's {e trajectory} across the
    configuration sequence, in the spirit of the fault-trajectory
    diagnosis approach (arXiv:0710.4725). An observed response is
    classified by the nearest trajectory under RMS distance; faults
    whose trajectories collide within a tolerance envelope form
    ambiguity sets that no tester on this measurement set can separate.

    Nothing here simulates: a trajectory is the campaign's own record
    ({!Testability.Matrix.deviations}, written by
    {!Testability.Detect.score_rows} beside each verdict row, on the
    view's output-cone engine). A point the campaign masks — below the
    measurement floor, on a dead or numerically dead view, or in an
    isolated fault's row — carries no measurement and reads 0; a point
    where the faulty system is singular reads 1e3. Building a
    dictionary from a pipeline costs no solve; {!build} and {!simulate}
    run a campaign of their own. *)

type t
(** A trajectory dictionary: per-fault deviation trajectories over a
    fixed (view × frequency) measurement set, the nominal magnitudes
    they were taken against, and the views {!simulate} runs its
    campaign over. *)

val build :
  ?tolerance:float ->
  Testability.Grid.t ->
  Testability.Matrix.view list ->
  Fault.t list ->
  t
(** [build grid views faults] runs the fault-simulation campaign over
    every view ([Mcdft_core.Adaptive.build] under
    {!Testability.Detect.default_criterion}: the deviation rows do not
    depend on the criterion, and a fixed one builds no envelope) and
    keeps its deviation rows. [tolerance] (default 0.02) is the RMS
    deviation envelope within which two trajectories count as
    colliding — the default for {!classify} and {!ambiguity_sets}.
    Raises {!Mna.Ac.Singular_circuit} where the campaign does (a live
    view whose cone system and whole system are both singular),
    {!Fault.Unknown_element} if a fault names an element absent from
    some view, and [Invalid_argument] on an empty view list or a
    negative tolerance. *)

val of_pipeline : ?tolerance:float -> ?configs:int list -> Mcdft_core.Pipeline.t -> t
(** The dictionary over a pipeline's test-configuration views (default:
    all of C₀ … C_{2ⁿ-2}; [configs] selects a subset by index, e.g. an
    optimized cover), read from the pipeline's matrix without a solve.
    Raises [Invalid_argument] on an index out of range, an empty
    subset or a negative tolerance. *)

val n_measurements : t -> int
(** Measurements per trajectory: views × grid frequencies. *)

val faults : t -> Fault.t list

val signature : t -> int -> float array
(** Copy of fault [j]'s trajectory (view-major, frequency-minor). *)

val simulate : t -> Fault.t -> float array
(** The trajectory a given fault would produce on this measurement set
    — the "tester side" for closed-loop self-tests: a one-fault
    campaign over the dictionary's views
    ([Mcdft_core.Adaptive.build], one simulation per cone class), with
    the dictionary's mask.
    The fault need not be in the dictionary. Raises
    {!Fault.Unknown_element} when the fault's element is absent. *)

val nominal_magnitudes : t -> float array
(** The recorded fault-free [|H|] at every measurement point
    (view-major, frequency-minor), 0 at every masked point — the
    reference a tester compares its logged magnitudes against. *)

val deviations_of_magnitudes : t -> float array -> float array
(** Convert observed magnitudes [|H|] (view-major, frequency-minor, as
    a tester would log them) into the signed relative deviations
    {!classify} consumes, 0 wherever the recorded nominal is 0: a
    tester's log is masked exactly as the dictionary is. Raises
    [Invalid_argument] on a length mismatch. *)

type verdict = {
  fault : Fault.t;  (** Nearest-trajectory fault. *)
  distance : float;  (** RMS distance to it. *)
  margin : float;  (** Distance gap to the runner-up ([infinity] if none). *)
  confidence : float;
      (** Margin-based score in [0, 1]: 0 when the two best candidates
          are equidistant, →1 as the runner-up recedes. *)
  ambiguous : Fault.t list;
      (** All faults within the tolerance envelope of the best
          distance, best first — the candidates a tester cannot
          separate on this observation. *)
  ranking : (Fault.t * float) list;  (** Every fault by distance, ascending. *)
}

val classify : ?tolerance:float -> t -> float array -> verdict
(** Locate the fault nearest to an observed deviation trajectory
    (length {!n_measurements}; see {!deviations_of_magnitudes}).
    [tolerance] overrides the dictionary's envelope. Raises
    [Invalid_argument] on a length mismatch or an empty fault
    universe. *)

val ambiguity_sets : ?tolerance:float -> t -> Fault.t list list
(** Partition of the fault universe by trajectory collision: the
    transitive closure of "RMS distance ≤ tolerance". Ordered by first
    fault occurrence; singleton sets are uniquely locatable faults. *)

val resolution : ?tolerance:float -> t -> float
(** Fraction of faults in singleton ambiguity sets — the trajectory
    analog of {!Dictionary.resolution}. *)
