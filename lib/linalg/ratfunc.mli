(** Rational functions of the Laplace variable s — transfer functions.

    A value represents H(s) = num(s) / den(s). Produced by the symbolic
    MNA path and consumed by pole/zero and frequency-response
    analyses. *)

type t = { num : Poly.t; den : Poly.t }

val make : Poly.t -> Poly.t -> t
(** [make num den]; raises [Invalid_argument] when [den] is the zero
    polynomial. The representation is normalized so the denominator is
    monic. *)

val poles : t -> Complex.t array
val zeros : t -> Complex.t array
val dc_gain : t -> float
(** H(0); infinite when the denominator vanishes at 0. *)

val simplify : ?tol:float -> t -> t
(** Cancel numerator/denominator root pairs closer than [tol] relative
    to their magnitude (default 1e-6), rebuilding both polynomials from
    the surviving roots. Evaluations are preserved up to rounding;
    useful after {!add}/{!mul} or a symbolic extraction left common
    factors behind. *)

val group_delay : t -> float -> float
(** Group delay −d(arg H(jω))/dω at angular frequency [w], computed
    analytically from the logarithmic derivative H'/H at s = jω (in
    seconds). *)

val equal_at : ?points:int -> ?tol:float -> t -> t -> bool
(** Probabilistic equality: compare evaluations on a fixed fan of
    complex sample points. Robust to non-canceled common factors. *)

val pp : Format.formatter -> t -> unit
