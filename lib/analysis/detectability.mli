(** Structural detectability pre-pass over the configuration space.

    {!Circuit.Influence} gives, per emulated configuration, a sound
    over-approximation of the elements able to affect the output there.
    This module lifts that per-configuration pass into a
    (configuration x fault) boolean matrix — [true] meaning "fault f is
    {e structurally undetectable} in configuration C_i; the campaign
    skips its simulation" — which lint reports as P001. The campaign
    reaches the same predicate per view ({!Testability.Detect}'s
    isolated faults): such a pair's row is all ['u'] by definition and
    costs no solve, and the [campaign.isolated_rows] counter of an
    unpruned campaign equals {!skip_count} (pinned by tests).
    Soundness: in exact arithmetic the fault moves the output by
    exactly zero, whatever the element values; an independent tier-1
    check confirms it against the numeric engine on every registry
    circuit. *)

type t = {
  configs : Multiconfig.Configuration.t array;
      (** The test configurations, in index order. *)
  faults : Fault.t array;
  undetectable : bool array array;
      (** [undetectable.(i).(j)]: fault [j] cannot affect the output in
          configuration [configs.(i)]. *)
  influential : (int * string list) list;
      (** Per configuration index: the passive elements that could
          affect the output there (the complement view, kept for
          reporting). *)
}

val analyse :
  ?follower_model:Circuit.Element.opamp_model ->
  ?faults:Fault.t list ->
  Multiconfig.Transform.t ->
  t
(** [faults] defaults to one +20 % deviation per passive. *)

val skip_count : t -> int
(** Number of [true] entries — the (configuration, fault) sweeps the
    campaign skips. *)

val total_pairs : t -> int

val undetectable_everywhere : t -> Fault.t list
(** Faults no test configuration can structurally detect — reported by
    lint as warnings (the DFT cannot reach them at all). *)
