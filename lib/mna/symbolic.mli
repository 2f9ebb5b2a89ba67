module Netlist := Circuit.Netlist
(** Exact symbolic transfer functions H(s) = num(s)/den(s).

    The MNA system is assembled over the ring of real polynomials in s
    and solved by Cramer's rule with fraction-free (Bareiss)
    elimination: H(s) = det(A with the output column replaced by b) /
    det(A). This gives the exact rational transfer function of the
    linear circuit — the symbolic counterpart of {!Ac.sweep}, used for
    pole/zero analysis and as a cross-check oracle in tests. *)

exception Singular_circuit of string

val determinant : Linalg.Poly.t array array -> Linalg.Poly.t
(** Fraction-free determinant of a square polynomial matrix. *)

val transfer : source:string -> output:string -> Netlist.t -> Linalg.Ratfunc.t
(** Transfer function from the named source (unit amplitude) to the
    output node voltage. Raises {!Singular_circuit} when det(A) is the
    zero polynomial, [Invalid_argument] when [output] is ground or
    unknown. *)

val poles : source:string -> output:string -> Netlist.t -> Complex.t array
val zeros : source:string -> output:string -> Netlist.t -> Complex.t array

val center_hz : source:string -> output:string -> Netlist.t -> float
(** The geometric mean of the pole magnitudes above 1e-3 rad/s, in Hz —
    the centre of a frequency grid for a circuit with no declared one.
    1 kHz when there is no usable pole: none above 1e-3 rad/s, a
    singular symbolic system, or a determinant whose coefficients
    overflow the float range (large ladders), which
    {!Linalg.Poly.roots} refuses with [Invalid_argument]. *)
