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
(** Overwrite the caller's workspace (length [size t]) with the
    excitation vector b(jω) (frequency-independent for all current
    element models, but evaluated generally). *)

(** {1 Sparse stamps}

    The same split-coefficient assembly delivered straight into a CSC
    pattern over only the stamped positions. Because the callback layer
    of {!Assemble.Make} accumulates in netlist element order, each
    sparse entry holds the {e identical} polynomial the dense build
    computes for that position — the two layouts produce the same
    A(jω) entry-for-entry, with the sparse one simply omitting the
    structural zeros. *)

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

val fill_sparse :
  sparse -> omega:float -> re:Linalg.Csparse.plane -> im:Linalg.Csparse.plane -> unit
(** Overwrite caller-owned value planes (length {!sparse_nnz}, slot
    order of {!sparse_pattern}) with A(jω). Entry values match
    {!fill} bit-for-bit — same split, same ω scaling, same overflow
    evaluation — and the same ["mna.fills"] counter increment. *)

val sparse_rhs_into : sparse -> omega:float -> Linalg.Cmat.Vec.t -> unit
(** {!rhs_into} from the sparse build; identical values. *)
