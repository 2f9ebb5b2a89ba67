module Netlist := Circuit.Netlist
(** Exact symbolic transfer functions H(s) = num(s)/den(s).

    The MNA system A(s) = G + sC is read off the stamp run
    ({!Stamps.iter_slots}) and solved by Cramer's rule: H(s) = det(A
    with the output column replaced by b) / det(A), each determinant
    recovered from complex LU samples on a circle by an inverse DFT.
    This gives the rational transfer function of the linear circuit — the symbolic counterpart of {!Ac.sweep}, used for
    pole/zero analysis and as a cross-check oracle in tests. *)

exception Singular_circuit of string

val transfer : source:string -> output:string -> Netlist.t -> Linalg.Ratfunc.t
(** Transfer function from the named source (unit amplitude) to the
    output node voltage. Raises {!Singular_circuit} when det(A) is the
    zero polynomial, [Invalid_argument] when [output] is ground or
    unknown. *)

val poles : source:string -> output:string -> Netlist.t -> Complex.t array

val center_hz : source:string -> output:string -> Netlist.t -> float
(** The geometric mean of the pole magnitudes above 1e-3 rad/s, in Hz —
    the centre of a frequency grid for a circuit with no declared one.
    Its one caller is the CLI's netlist loader. 1 kHz when there is no
    usable pole: none above 1e-3 rad/s, a singular symbolic system, or
    a determinant whose coefficients overflow the float range (large
    ladders), which {!Linalg.Poly.roots} refuses with
    [Invalid_argument]. *)
