(** The differential oracle registry.

    An oracle checks one agreement property between two independent
    implementations of the same quantity — the redundancy the repo
    already pays for (per-stamp complex assembly vs the stamp run,
    rank-1 updates vs re-assembly, parallel vs sequential campaigns,
    structural vs numeric rank, exhaustive vs branch-and-bound covers)
    turned into an executable contract. Oracles never consult each
    other and recompute everything from the subject netlist, so a
    verdict depends only on the subject — the property the shrinker
    and [--replay] rely on.

    A [Skip] is a non-verdict: the subject does not exercise the
    property (e.g. a genuinely singular soup cannot be fault-simulated)
    or sits outside the oracle's validity envelope. Skips are counted
    and reported but never fail a run. *)

type verdict =
  | Pass
  | Fail of string  (** Disagreement, with the evidence. *)
  | Skip of string  (** Property not exercised by this subject. *)

type t = private {
  name : string;  (** Stable CLI identifier, e.g. ["rank1-updates"]. *)
  doc : string;
  check : Gen.subject -> verdict;
}

val all : t list
(** Registry, in execution order:
    ["ac-reference"], ["rank1-updates"], ["jobs-invariance"],
    ["structural-vs-lu"], ["cover-minimality"]. *)

val find : string -> t option

val run : t -> Gen.subject -> verdict
(** [check] behind guard rails: subjects missing their source element
    or output node are [Skip]ped (shrinking may ask for them), and an
    exception escaping the oracle is a [Fail], not a crash. *)

val verdict_to_string : verdict -> string
