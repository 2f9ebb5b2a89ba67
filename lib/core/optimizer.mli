(** The paper's ordered-requirements optimization (Section 4).

    Input: a fault detectability matrix and its ω-detectability
    companion over the test configurations C₀ … C_{2ⁿ-2} of an n-opamp
    circuit (the transparent configuration is excluded, as in the
    paper). Whether the matrices come from our fault simulator or from
    the paper's published tables is irrelevant here.

    The flow is:
    + 1st order (fundamental): enumerate configuration sets reaching
      the maximum achievable fault coverage — essential configurations,
      matrix reduction, Petrick expansion;
    + 2nd order, objective A: minimize the number of test
      configurations (test time / BIST control simplicity);
    + 2nd order, objective B: minimize the number of configurable
      opamps (area / performance cost — partial DFT);
    + 3rd order: break remaining ties by the average best-case
      ω-detectability. *)

module IntSet := Cover.Clause.IntSet

type input = {
  n_opamps : int;
  detect : bool array array;
      (** Rows C₀ … C_{2ⁿ-2}, one column per fault. *)
  omega : float array array;
      (** Same shape; any consistent unit (the paper uses percent). *)
}

val input_of_matrices : n_opamps:int -> bool array array -> float array array -> input
(** Validates shapes: [2^n - 1] rows, consistent column counts,
    ω present wherever a fault is detectable. *)

type config_choice = {
  configs : int list;  (** Chosen configuration indices, increasing. *)
  avg_omega : float;  (** ⟨ω-det⟩: mean over all faults of the best chosen-view value. *)
}

type opamp_choice = {
  opamps : int list;  (** 0-based positions of configurable opamps. *)
  reachable_configs : int list;
      (** All test configurations usable with those opamps (followers
          within the set), including C₀. *)
  avg_omega_reachable : float;
}

type detection_stats = {
  worst : int;  (** Fewest detections any detectable fault receives. *)
  average : float;  (** Mean detection count over detectable faults. *)
  per_fault : int array;  (** Detection count per fault column. *)
}

type report = {
  input : input;
  n_detect : int;  (** Requested per-fault detection multiplicity. *)
  uncoverable : int list;  (** Fault columns no configuration detects. *)
  short_faults : (int * int) list;
      (** [(fault, available)] for faults detectable in fewer than
          [n_detect] configurations — their requirement was capped at
          the achievable count. *)
  max_coverage : float;  (** The fundamental requirement's target. *)
  functional_coverage : float;  (** Coverage of C₀ alone. *)
  functional_avg_omega : float;
  brute_force_avg_omega : float;  (** Best configuration per fault over all. *)
  essential : int list;  (** Essential configurations (paper: {C₂}). *)
  xi : Cover.Clause.t;  (** The full POS expression. *)
  xi_reduced : Cover.Clause.t;  (** After removing essential-covered faults. *)
  xi_raw_count : int option;
      (** The number of terms of the paper-style SOP (no absorption);
          [None] when Petrick expansion was skipped for size. *)
  xi_terms_raw : IntSet.t list option;
      (** That SOP itself, essential configurations included in every
          term, in derivation order; built only when it has at most
          {!xi_listing_limit} terms, [None] otherwise. The paper's ξ*
          (§4.3) is [Cover.Mapping.xi_star] of this list. *)
  xi_terms_min : IntSet.t list option;
      (** All irredundant covers (with absorption), same convention. *)
  min_config_sets : IntSet.t list;  (** 2nd-order-A ties. *)
  choice_a : config_choice;  (** After the 3rd-order tie-break. *)
  min_opamp_sets : IntSet.t list;  (** 2nd-order-B ties. *)
  choice_b : opamp_choice;  (** After the 3rd-order tie-break. *)
  detection_a : detection_stats;  (** Counts delivered by [choice_a.configs]. *)
  detection_b : detection_stats;
      (** Counts delivered by [choice_b.reachable_configs]. *)
}

val avg_omega_of : input -> int list -> float
(** ⟨ω-det⟩ of a configuration subset: mean over every fault of the
    best ω among the subset's rows. *)

val xi_listing_limit : int
(** 12: the longest raw SOP that {!optimize} builds and [mcdft
    optimize] lists; longer ones are only counted. *)

val optimize : ?petrick_limit:int -> ?n_detect:int -> input -> report
(** Run the full flow. Petrick expansion (and the raw SOP count) is
    only attempted when the number of opamps is at most
    [petrick_limit] (default 5) and the reduced ξ has at most
    {!Cover.Petrick.max_candidates} distinct configurations (always
    true up to 6 opamps); otherwise the exact
    branch-and-bound solver provides the minimum-cardinality set and
    opamp subsets are found by direct subset enumeration (which is
    exact at any size).

    [n_detect] (default 1) asks that every fault be detected in at
    least that many chosen configurations (n-detection covering,
    Pomeranz & Reddy). Requirements are capped at each fault's
    achievable count — the capped faults are listed in
    [short_faults] — so the flow always succeeds; both the
    configuration covers (objective A) and the opamp subsets
    (objective B) honor the multiplicity. Raises [Invalid_argument]
    when [n_detect < 1]. *)
