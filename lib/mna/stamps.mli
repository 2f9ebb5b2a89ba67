module Netlist := Circuit.Netlist

(** Frequency-split MNA assembly: A(s) = G + sC (+ rare higher-order
    terms).

    Every stamp the assembler produces is affine in the Laplace
    variable, so the system splits into two frequency-independent real
    planes: G (conductances, controlled-source gains, unit entries) and
    C (capacitances, inductances, opamp pole terms). The split is
    computed {e once per netlist} by running the generic stamping
    functor over the polynomial field and reading off the
    s-coefficients of each entry — the numeric and symbolic back-ends
    therefore share one stamping routine and cannot drift apart.

    Forming A(jω) at a sweep point is then a single fused pass over
    the two planes ({!Linalg.Cmat.fill_parts}) into a caller-owned
    dense matrix, and b(jω) one pass into a caller-owned vector: no
    functor instantiation, no [array array] round-trip, no
    per-frequency restamping, no allocation. Entries whose polynomial
    degree exceeds 1 (none of the current element models produce any)
    are kept exactly in a sparse overflow list and evaluated per
    frequency. The same planes feed the sparse layout below. *)

type t

val build : ?sources:Assemble.source_mode -> Index.t -> Netlist.t -> t
(** Assemble the split stamps for a netlist under the given source
    mode (default [Nominal]). Same exceptions as {!Assemble.Make}. *)

val size : t -> int
(** The MNA system dimension (nodes + group-2 branches). *)

val fill : t -> omega:float -> Linalg.Cmat.t -> unit
(** Overwrite the given [size t] square matrix with A(jω) and count
    one ["mna.fills"]. Entry values match assembling with the complex
    field at [s = jω] exactly, except where several reactive stamps
    accumulate on one entry — there ω(c₁+c₂) replaces ωc₁+ωc₂, a
    difference of at most one ulp. *)

val rhs_into : t -> omega:float -> Linalg.Cmat.Vec.t -> unit
(** Overwrite the first [size t] entries of the caller's workspace
    with the excitation vector b(jω) (frequency-independent for all
    current element models, but evaluated generally). *)

(** {1 Sparse stamps}

    The same split-coefficient assembly delivered straight into a CSC
    pattern over only the stamped positions. The stamps are recorded as
    a flat run of (row, column, polynomial) in netlist element order,
    {!Linalg.Csparse.pattern_slots} gives each its slot, and each
    entry's coefficients are summed in element order: the
    {e identical} arithmetic the dense build's polynomial sum does, so
    the two layouts produce the same A(jω) entry-for-entry, with the
    sparse one simply omitting the structural zeros. No hashtable is
    built. *)

type sparse

val build_sparse :
  ?sources:Assemble.source_mode -> Index.t -> Netlist.t -> sparse
(** {!build} into sparse storage. Same source-mode semantics and
    exceptions, same ["mna.assemble_s"] timer. *)

val sparse_size : sparse -> int
(** The MNA system dimension. *)

val sparse_pattern : sparse -> Linalg.Csparse.pattern
(** The CSC sparsity pattern of A — fixed per netlist; value planes
    indexed by its slot order. *)

val sparse_nnz : sparse -> int

val fill_sparse : sparse -> omega:float -> Linalg.Csparse.plane -> unit
(** Overwrite a caller-owned value plane (at least 2·{!sparse_nnz}
    elements, the layout {!Linalg.Csparse} reads: real parts in the
    slot order of {!sparse_pattern}, then imaginary parts) with A(jω).
    Allocates nothing. Entry values match
    {!fill} bit-for-bit — same split, same ω scaling, same overflow
    evaluation — and the same ["mna.fills"] counter increment. *)

val sparse_rhs_into : sparse -> omega:float -> Linalg.Cmat.Vec.t -> unit
(** {!rhs_into} from the sparse build; identical values. *)
