(** Petrick's method: expand the product-of-sums ξ into a sum of
    products. Every product term is a configuration set satisfying the
    fundamental requirement (maximum fault coverage).

    Multiplicity clauses (need > 1) distribute over their
    [need]-element literal subsets: any solution contains at least one
    such subset in full. An unsatisfiable clause ([cardinal lits <
    need]) has no subsets, so both expansions return [] — ξ ≡ 0;
    feasibility should be checked up front via
    {!Clause.infeasible_tags} where that matters.

    Two variants are exposed because the paper's worked example (§4.1)
    develops ξ applying idempotence but {e not} absorption — its five
    product terms include absorbable ones like C1·C2·C5 ⊃ C1·C2. Where
    only the size of that expression is wanted, {!count_raw} gives it
    without building the terms.

    Representation: the system's k distinct candidates are ranked
    0 … k−1 in increasing order and a product term is an [int] mask over
    those ranks, so a union is one [lor] and a subset test one
    [land lnot]. This bounds k by {!max_candidates}; all three functions
    raise [Invalid_argument] above it (an [n]-opamp circuit has
    [2^n − 1] test configurations, so every system of up to 6 opamps
    fits). Terms are converted back to {!Clause.IntSet.t} once, at the
    end; the derivation order of {!expand_raw} and the sort order of
    {!expand} are those of the set-based formulation. *)

val max_candidates : int
(** [Sys.int_size] (63 on 64-bit hosts): the most distinct candidates a
    system may have for {!expand_raw} and {!expand}. The top rank is
    the sign bit, which every mask operation treats like any other. *)

val expand_raw : Clause.t -> Clause.IntSet.t list
(** Distribute, apply idempotence (x·x = x) and drop duplicate terms,
    but keep absorbable terms — reproduces the paper's ξ expression
    verbatim. Terms are ordered by the derivation (clause order), then
    deduplicated keeping first occurrences. Each step filters its
    products through an int-keyed hash set, so a step costs
    O(products × subsets); the output itself is exponential in the worst case, so
    this is intended for paper-scale instances. Raises
    [Invalid_argument] beyond {!max_candidates} candidates. *)

val count_raw : Clause.t -> int
(** [List.length (expand_raw t)], without building the terms. The raw
    terms are exactly the distinct ORs of one [need]-subset per clause,
    so with k ≤ 20 candidates each clause is one pass over a 2{^k}-byte
    table of rank masks (no hashing, no sets, O(clauses × (2{^k} +
    products × subsets))); above 20 it counts the masks of
    {!expand_raw}'s hash pass without converting them. 1 on the empty
    clause list, 0 when a clause is unsatisfiable. Raises
    [Invalid_argument] beyond {!max_candidates} candidates. *)

val expand : Clause.t -> Clause.IntSet.t list
(** Full Petrick expansion with absorption: the result is the antichain
    of all minimal (irredundant) covers, sorted by cardinality then
    lexicographically. Each step absorbs by scanning its products in
    popcount order against the terms kept so far, O(products × kept)
    word operations. Raises [Invalid_argument] beyond
    {!max_candidates} candidates. *)

val cheapest : ?cost:(int -> float) -> Clause.IntSet.t list -> Clause.IntSet.t list
(** The terms of minimum total cost (default cost: 1 per candidate,
    i.e. cardinality) — the paper's 2nd-order selection. Returns all
    ties. *)
