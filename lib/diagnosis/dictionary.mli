(** Dictionary-based fault diagnosis over the multi-configuration
    space.

    The paper's testability work sits in a literature centred on fault
    {e diagnosis} (its refs [7–10]); this module closes that loop. The
    fault dictionary stores, for every fault, its pass/fail signature
    across all (configuration, frequency) measurements; faults with
    identical signatures form ambiguity groups. Reconfiguration
    improves diagnosability for the same reason it improves coverage:
    different configurations separate faults that look alike at the
    functional output.

    The signatures are the campaign's per-point verdicts
    ({!Testability.Matrix.verdicts}): building a dictionary simulates
    nothing. *)

type dictionary = {
  configs : int list;  (** Configuration indices, measurement-major order. *)
  freqs_hz : float array;  (** Grid frequencies within each configuration. *)
  faults : Fault.t array;
  signatures : bool array array;
      (** [signatures.(j)] is fault j's pass/fail pattern over
          [configs x freqs] (configuration-major). *)
}

val build : ?configs:int list -> Mcdft_core.Pipeline.t -> dictionary
(** Build the dictionary over the given configurations (default: all
    test configurations of the pipeline) from the pipeline's verdict
    rows. Raises [Invalid_argument] on an index that is not a test
    configuration. *)

val ambiguity_groups : dictionary -> Fault.t list list
(** Partition of the faults by identical signature. The all-pass
    (undetectable) faults, if any, form one group. Groups are ordered
    by first fault occurrence. *)

val resolution : dictionary -> float
(** Diagnostic resolution: (number of singleton groups among detectable
    faults) / (number of detectable faults); 1.0 means every detectable
    fault is uniquely identifiable. 0 when nothing is detectable. *)

val diagnose : dictionary -> bool array -> (Fault.t * int) list
(** Candidate faults for an observed signature, sorted by Hamming
    distance (distance 0 first — exact matches). Raises
    [Invalid_argument] on a signature length mismatch. *)

val signature_of : Mcdft_core.Pipeline.t -> dictionary -> Fault.t -> bool array
(** The signature a given fault, in the universe or not, would
    produce under the dictionary's measurement set — the "tester side"
    for closed-loop experiments. Runs a one-fault campaign
    ({!Mcdft_core.Adaptive.build}, one simulation per cone class)
    over the pipeline's views of the
    dictionary's configurations, under the pipeline's criterion and
    grid. Raises {!Fault.Unknown_element} when the fault's element is
    absent. *)
