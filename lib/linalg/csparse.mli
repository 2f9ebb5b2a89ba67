(** Sparse complex linear algebra on split re/im off-heap planes.

    Built for MNA sweeps: a netlist's occurrence {!pattern} is fixed
    while the entry values change per frequency, so the factorization
    follows the classic SPICE split — {!analyze} picks a
    Markowitz-style (minimum fill-in, threshold-pivoted) elimination
    order once per pattern, and {!refactor} re-runs the numeric
    factorization over the recorded static fill pattern per frequency
    into reusable workspaces, O(flops(fill)) with no searching and no
    allocation.

    Storage follows {!Cmat}: every payload is a pair of
    [Bigarray.Array1] float64 planes off the OCaml heap. Numeric
    conventions are the dense kernels' exactly — {!Cmat.norm2}
    magnitudes, Smith division for every complex quotient, and the
    growth-aware [1e-300 + scale·n·4·ε] singularity threshold raising
    {!Cmat.Singular}. Pivot {e order} differs from the dense partial
    pivoting, so results agree to rounding (not bitwise). *)

type plane = Cmat.plane

val plane : int -> plane
(** Zero-filled off-heap plane of the given length. *)

(** {1 Pattern} *)

type pattern
(** Immutable CSC occupancy: [n]×[n] with [nnz] stored positions, rows
    ascending within each column. Value planes of length [nnz] are
    owned by the caller and aligned with the pattern's slot order. *)

val pattern : n:int -> (int * int) array -> pattern
(** Build from [(row, col)] coordinates. Raises [Invalid_argument] on
    out-of-bounds or duplicate entries. *)

val nnz : pattern -> int

val slot : pattern -> row:int -> col:int -> int
(** Index of [(row, col)] in the value planes; raises [Not_found] when
    the position is not stored. *)

val norms_inf : pattern -> re:plane -> im:plane -> float * float
(** The row-sum infinity norm under both entry magnitudes, from one
    pass over the stored entries: [(max row sum of |re| + |im|,
    max row sum of {!Cmat.norm2})]. The second equals the second of
    {!Cmat.norms_inf} on the densified matrix. *)

val mul_vec_into :
  pattern -> re:plane -> im:plane -> x:Cmat.Vec.t -> y:Cmat.Vec.t -> unit
(** [y <- A x], column-wise over the stored entries: O(nnz), no
    allocation. *)

val abs_bilinear :
  pattern -> re:plane -> im:plane -> y:Cmat.Vec.t -> x:Cmat.Vec.t -> float
(** {!Cmat.abs_bilinear} over the stored entries: O(nnz). *)

val dense_into : pattern -> re:plane -> im:plane -> Cmat.t -> unit
(** Densify into an off-heap matrix (zeroing it first) — the bridge to
    the dense fallback paths. *)

(** {1 Symbolic analysis} *)

type symbolic
(** Elimination order plus the filled L/U patterns, computed once per
    pattern and shared read-only across frequencies and solves. *)

val analyze : pattern -> re:plane -> im:plane -> symbolic
(** Right-looking elimination with Markowitz pivoting (minimize
    [(row_count−1)·(col_count−1)]) under threshold partial pivoting
    (candidates within 1e-3 of their column's maximum magnitude) on the
    given representative values; records the pivot order and the filled
    pattern for {!refactor}. Ties go to the larger magnitude, then the
    smaller (row, column), so the order is a function of the pattern
    and values alone. Each column's best candidate is cached and only
    the columns a pivot changes (entries or row counts) are searched
    again, so the search costs about the fill, not n per pivot. Raises
    {!Cmat.Singular} when no acceptable pivot above the dense
    singularity threshold exists (structural or numeric singularity at
    the representative values). *)

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

val numeric : symbolic -> numeric

val refactor : numeric -> re:plane -> im:plane -> unit
(** Factor the values over the static pattern (left-looking, static
    pivots). Raises {!Cmat.Singular} when a pivot falls below the
    dense singularity threshold; the workspace is left clean for a
    retry with different values. *)

val lu_abs_norm_inf : numeric -> float
(** [‖|L̂||Û|‖∞] of the last {!refactor}, with the entry magnitude
    [|z| = |re| + |im|] and L̂'s unit diagonal: {!Cmat.lu_abs_norm_inf}
    for the sparse factors, in O(nnz(L + U)). With [P A Q = L̂ Û] the
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
(** Multi-RHS variant mirroring {!Cmat.lu_solve_block_into}: [b]
    and [x] are n×k row-major blocks, column r the r-th right-hand
    side/solution; per column the operation order is exactly
    {!solve_into}'s. [work], a third n×k block distinct from both,
    holds the permuted intermediate, so the call allocates nothing. *)
