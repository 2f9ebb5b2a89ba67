module Netlist := Circuit.Netlist

(** The MNA stamp run: A(s) = G + sC and b(s), over the stamped
    positions only.

    Every stamp the element models make is affine in the Laplace
    variable, so the system is two frequency-independent real planes:
    G (conductances, controlled-source gains, unit entries) and C
    (capacitances, inductances, opamp pole terms). {!build_sparse}
    records the stamps of {!Assemble.stamp_element} as a flat run of
    (row, column, s⁰, s¹) in netlist element order,
    {!Linalg.Csparse.pattern_slots} gives each its slot, and each
    slot's coefficients are summed in element order from 0.0. No
    hashtable is built and no n² plane is kept.

    Forming A(jω) at a sweep point is then one pass over the slots into
    a caller-owned value plane ({!fill_sparse}), and b(jω) one pass
    into a caller-owned vector: no per-frequency restamping, no
    allocation. A dense reader densifies the plane with
    {!Linalg.Csparse.dense_into}; the symbolic and structural readers
    read the slots' coefficients ({!iter_slots}). The run also keeps
    the netlist's {!Index.t} and the rows each element stamps into, so
    one build serves an engine and its {!signature}. *)

type sparse

val build_sparse : ?sources:Assemble.source_mode -> Netlist.t -> sparse
(** The netlist's index and its stamp run under the given source mode
    (default [Nominal]), timed under ["mna.assemble_s"]. Raises
    [Not_found] if a current-sensing element references a voltage
    source absent from the netlist. *)

val sparse_index : sparse -> Index.t
(** The index the stamps are laid out in. *)

val iter_slots : sparse -> (int -> int -> float -> float -> unit) -> unit
(** [iter_slots t f] calls [f i j g c] on every slot of
    {!sparse_pattern}, in slot order: its row [i], its column [j], and
    the s⁰ and s¹ coefficients [g] and [c] of A(s) there. A slot whose
    stamps cancel exactly (an opamp with both inputs on one node
    stamps +1 − 1) holds zeros. *)

val iter_rhs : sparse -> (int -> float -> float -> unit) -> unit
(** [iter_rhs t f] calls [f i g c] on every row [i] of the system, in
    order, with the s⁰ and s¹ coefficients of b(s) there. *)

val signature : sparse -> locked:(string -> bool) -> string
(** A value-exact signature of the assembled system, canonical up to
    per-row sign: two runs with equal signatures assemble the same
    A(s)x = b(s) after negating some equations, so every response
    derived from either is identical — negating an equation (both
    matrix row and excitation entry) is exact in IEEE arithmetic and
    does not move the solution.

    Every row an element named by [locked] stamps into (matrix or
    excitation, ground columns included, whatever the stamp's value)
    keeps its assembled sign and is marked in the signature. A
    campaign pruner locks its fault universe: with those rows locked,
    equal signatures imply equal {e faulty} responses too (a rank-1
    perturbation or a structural re-assembly lands in sign-identical
    equations). The signature is that of the run's source mode. It is
    a binary string; coefficients are emitted as their IEEE bits, so
    equality is bit-exact.

    Cost: one pass over the run's slots and a counting sort of them by
    row, O(nnz + n) — never the n² of a dense scan. *)

val sparse_pattern : sparse -> Linalg.Csparse.pattern
(** The CSC sparsity pattern of A — fixed per netlist; value planes
    indexed by its slot order. *)

val sparse_nnz : sparse -> int

val fill_sparse : sparse -> omega:float -> Linalg.Csparse.plane -> unit
(** Overwrite a caller-owned value plane (at least 2·{!sparse_nnz}
    elements, the layout {!Linalg.Csparse} reads: real parts in the
    slot order of {!sparse_pattern}, then imaginary parts) with A(jω):
    slot k holds [g + i·(ω·c)]. Allocates nothing and counts one
    ["mna.fills"]. *)

val sparse_rhs_into : sparse -> omega:float -> Linalg.Cmat.Vec.t -> unit
(** Overwrite the first [n] entries of the caller's vector with the
    excitation b(jω), [n] the system dimension. *)
