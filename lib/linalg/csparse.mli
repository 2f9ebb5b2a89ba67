(** Sparse complex linear algebra on split re/im off-heap planes.

    Built for MNA sweeps: a netlist's occurrence {!pattern} is fixed
    while the entry values change per frequency, so the factorization
    follows the classic SPICE split — {!analyze} picks a
    Markowitz-style (minimum fill-in, threshold-pivoted) elimination
    order once per pattern, and {!refactor} re-runs the numeric
    factorization over the recorded static fill pattern per frequency
    into reusable workspaces, O(flops(fill)) with no searching and no
    allocation.

    Storage follows {!Cmat}: every payload lives in [Bigarray.Array1]
    float64 planes off the OCaml heap. A matrix's values are one
    {e value plane}: slot k's real part at [k], its imaginary part at
    [nnz + k] (a longer plane's tail is not read). A factorization is a
    run of offsets into one plane, so per-frequency work cuts no
    sub-views. Numeric conventions are the dense kernels' exactly —
    [Complex.norm] magnitudes, Smith division for every complex quotient, and the
    growth-aware [1e-300 + scale·n·4·ε] singularity threshold raising
    {!Cmat.Singular}. Pivot {e order} differs from the dense partial
    pivoting, so results agree to rounding (not bitwise). *)

type plane = Cmat.plane

val plane : int -> plane
(** Zero-filled off-heap plane of the given length. *)

(** {1 Pattern} *)

type pattern
(** Immutable CSC occupancy: [n]×[n] with [nnz] stored positions, rows
    ascending within each column. Value planes of at least [2·nnz]
    elements are owned by the caller and aligned with the pattern's
    slot order. *)

val pattern : n:int -> (int * int) array -> pattern
(** Build from [(row, col)] coordinates. Raises [Invalid_argument] on
    out-of-bounds or duplicate entries. *)

val pattern_slots : n:int -> row:int array -> col:int array -> pattern * int array
(** [pattern_slots ~n ~row ~col] is the pattern of the positions
    [(row.(e), col.(e))], a position given any number of times, and
    the slot of each entry [e]: an assembly adds entry [e] into slot
    [slots.(e)]. Sorts by counting, in O(entries + n). Raises
    [Invalid_argument] on out-of-bounds positions or arrays of
    different lengths. *)

val nnz : pattern -> int

val slot : pattern -> row:int -> col:int -> int
(** Index of [(row, col)] in the value plane's real part; raises
    [Not_found] when the position is not stored. *)

val norms_inf : pattern -> plane -> float * float
(** The row-sum infinity norm under both entry magnitudes, from one
    pass over the stored entries: [(max row sum of |re| + |im|,
    max row sum of [Complex.norm])]: the norms of the densified
    matrix. *)

val mul_vec_into : pattern -> plane -> x:Cmat.Vec.t -> y:Cmat.Vec.t -> unit
(** [y <- A x], column-wise over the stored entries: O(nnz), no
    allocation. Vectors longer than [n] are read and written in their
    first [n] entries only, as every vector of this module is. *)

val abs_bilinear : pattern -> plane -> y:Cmat.Vec.t -> x:Cmat.Vec.t -> float
(** [Σᵢ |yᵢ| Σₖ |aᵢₖ| |xₖ|], i.e. [|y|ᵀ|A||x|], with the entry
    magnitude [|z| = |re| + |im|], over the stored entries: O(nnz). *)

val dense_into : pattern -> plane -> Cmat.t -> unit
(** Densify into an off-heap matrix (zeroing it first) — the bridge to
    the dense fallback paths. *)

(** {1 Symbolic analysis} *)

type symbolic
(** Elimination order plus the filled L/U patterns, computed once per
    pattern and shared read-only across frequencies and solves. *)

val analyze : pattern -> plane -> symbolic
(** Right-looking elimination with Markowitz pivoting (minimize
    [(row_count−1)·(col_count−1)]) under threshold partial pivoting
    (candidates within 1e-3 of their column's maximum magnitude) on the
    given representative values; records the pivot order and the filled
    pattern for {!refactor}. Ties go to the larger magnitude, then the
    smaller (row, column), so the order is a function of the pattern
    and values alone. Each column's best candidate is cached and only
    the columns a pivot changes (entries or row counts) are searched
    again, so the search costs about the fill plus one scan of the
    column candidates per pivot; the working matrix lives in flat
    arrays. Where
    that order runs out of pivots above the dense singularity
    threshold, the analysis takes the dense LU's order instead
    (columns in order, each on its largest entry, the smaller row on a
    tie), the order {!Cmat.lu_factor} takes. Raises
    {!Cmat.Singular} when both orders fail (structural or numeric
    singularity at the representative values). *)

val pivot_order : symbolic -> int array * int array
(** [(roworder, colorder)]: the original row and column pivoted at
    each elimination step (copies; for tests that pin the order). *)

val factor_pattern : symbolic -> int array * int array * int array * int array
(** [(l_colptr, l_rowind, u_colptr, u_rowind)]: the filled factor
    patterns in permuted coordinates, CSC, rows ascending within a
    column; L strictly lower, U strictly upper (the diagonal is
    implicit). *)

(** {1 Numeric factorization} *)

type numeric
(** Reusable factor workspace bound to one {!symbolic}. One [numeric]
    per frequency; {!refactor} is single-writer, solves on a factored
    workspace are read-only and safe from concurrent domains. *)

val factor_len : symbolic -> int
(** The elements a {!numeric} of [symbolic] occupies in its plane. *)

val numeric : symbolic -> plane -> off:int -> numeric
(** A workspace for [symbolic]'s factors in caller storage: the
    factors, the diagonal and the scatter workspace occupy
    {!factor_len} elements of the plane from offset [off] on
    ([Invalid_argument] if it is shorter). The scatter part is zeroed;
    the rest is written by {!refactor}. A caller that factors many
    systems places each in storage it recycles, behind the values it
    factors if it likes. *)

val refactor : numeric -> plane -> unit
(** Factor the values over the static pattern (left-looking, static
    pivots). Raises {!Cmat.Singular} when a pivot falls below the
    dense singularity threshold; the workspace is left clean for a
    retry with different values. Allocates nothing. *)

val lu_abs_norm_inf : numeric -> float
(** [‖|L̂||Û|‖∞] of the last {!refactor}, with the entry magnitude
    [|z| = |re| + |im|] and L̂'s unit diagonal, in O(nnz(L + U)): the
    quantity the LU backward error bound (Higham, Thm 9.4:
    [|ΔA| ≤ γ₃ₙ|L̂||Û|]) scales. With [P A Q = L̂ Û] the
    permutations move whole rows and entries within a row, so this is
    also the norm of [Pᵀ|L̂||Û|Qᵀ], the scale of the backward error of
    a solve on the original system (Higham, Thm 9.4). [nan] once a
    row sum is. *)

val solve_into : numeric -> b:Cmat.Vec.t -> x:Cmat.Vec.t -> unit
(** [x <- A⁻¹ b] through the sparse factors, O(fill) with unboxed
    reads (no float is allocated per entry). [b] and [x] must not
    alias. Uses per-domain scratch for the permuted intermediate, so
    concurrent solves from several domains are safe. *)

val solve_transpose_into : numeric -> b:Cmat.Vec.t -> x:Cmat.Vec.t -> unit
(** [x <- A⁻ᵀ b] (the transpose, not the conjugate transpose) through
    the same factors, O(fill). [b] and [x] must not alias. *)

val solve_block_into : numeric -> work:Cmat.t -> b:Cmat.t -> x:Cmat.t -> unit
(** Multi-RHS back-solve: [b] and [x] are n×k row-major blocks
    (element [(i, r)] at offset [i*k + r]), column r the r-th
    right-hand side/solution. One pass over the factors serves all k
    columns, while per column the operation order (hence every
    rounding) is exactly {!solve_into}'s, so results are bitwise-equal
    to k single solves. [work], a third n×k block distinct from both,
    holds the permuted intermediate, so the call allocates nothing. *)
