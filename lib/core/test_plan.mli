(** From configuration sets to a concrete test schedule.

    The paper selects {e which configurations} to use; a tester still
    has to pick {e which frequencies} to measure in each of them. Since
    the campaign already decided, for every fault, every grid point of
    every configuration ({!Testability.Matrix.verdicts}), choosing the
    measurements is one more unate covering problem: pick a minimum
    set of (configuration, frequency) points such that every coverable
    fault is caught by at least one. This is the frequency-domain
    test-generation step the paper points to through its references
    [12, 13]. Both schedules read the pipeline's verdict rows and
    simulate nothing, so they describe exactly the views the matrix
    was built from (finite-GBW followers included). *)

type measurement = { config : int; freq_hz : float }

type t = {
  measurements : measurement list;
      (** Minimal schedule, sorted by configuration then frequency. *)
  covered : int;  (** Faults detected by the schedule. *)
  total_coverable : int;
      (** Faults detectable at all within the chosen configurations. *)
  witnesses : (Fault.t * measurement) list;
      (** For each covered fault, one scheduled measurement that
          detects it. *)
}

val build : ?configs:int list -> Pipeline.t -> t
(** Build the minimal schedule over the given configuration subset
    (default: the optimizer's minimal test-configuration choice), from
    the pipeline's grid, fault list and verdict rows. Raises
    [Invalid_argument] on an index that is not a test configuration. *)

val build_diagnostic : ?configs:int list -> Pipeline.t -> t
(** Like {!build}, but the schedule must also {e separate} every fault
    pair that is separable within the configuration subset (some
    measurement fires for one fault and not the other) — the
    diagnosis-oriented schedule. Always at least as long as the
    detection-only schedule. Default [configs]: all test
    configurations, since diagnosis benefits from the full space (see
    the X7 bench). *)

val to_string : t -> string
(** Human-readable schedule. *)
