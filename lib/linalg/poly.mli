(** Real-coefficient univariate polynomials in the Laplace variable s.

    The numerators and denominators of the symbolic transfer functions
    ([Mna.Symbolic], {!Ratfunc}) and their pole/zero analysis. Coefficients are stored lowest degree
    first; the zero polynomial has an empty coefficient list. *)

type t

val one : t
val of_coeffs : float array -> t
(** [of_coeffs [|c0; c1; ...|]] is [c0 + c1 s + ...]; trailing zeros are
    trimmed. *)

val coeffs : t -> float array
(** Coefficients, lowest degree first; empty for the zero polynomial. *)

val coeff : t -> int -> float
(** [coeff p k] is the coefficient of [s^k] (0 beyond the degree). *)

val degree : t -> int
(** Degree; [-1] for the zero polynomial. *)

val is_zero : t -> bool
val equal : ?tol:float -> t -> t -> bool
val mul : t -> t -> t
val scale : float -> t -> t

val eval : t -> Complex.t -> Complex.t
(** Evaluate at a complex point by Horner's rule. *)

val derivative : t -> t

val roots : ?max_iter:int -> ?tol:float -> t -> Complex.t array
(** All complex roots via the Aberth–Ehrlich simultaneous iteration.
    Returns the empty array for constant polynomials. Raises
    [Invalid_argument] when a coefficient is not finite (e.g. an
    overflowed symbolic determinant) or the leading coefficient is too
    small to normalize by. *)

val pp : Format.formatter -> t -> unit
