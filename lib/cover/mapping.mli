(** Configuration → opamp mapping for the partial-DFT optimization
    (paper §4.3, Table 3).

    Configuration index [i] puts opamp [k] (0-based) in follower mode
    iff bit [k] of [i] is set; a configuration therefore {e requires}
    exactly the configurable opamps named by its set bits. Substituting
    each configuration of a ξ product term by its opamp set turns ξ
    into ξ*, whose terms count configurable opamps instead of test
    configurations. *)

val opamps_of_config : int -> Clause.IntSet.t
(** The 0-based opamp positions a configuration requires — the set bits
    of its index. C₀ needs none. *)

val xi_star : Clause.IntSet.t list -> Clause.IntSet.t list
(** Map every ξ term to the union of its configurations' opamp sets,
    keeping duplicates — the paper's raw ξ* expression. *)
