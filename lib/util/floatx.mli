(** Floating-point helpers shared across the project. *)

val approx_eq : ?rel:float -> ?abs:float -> float -> float -> bool
(** [approx_eq a b] is true when [a] and [b] are equal up to a relative
    tolerance [rel] (default 1e-9) or an absolute tolerance [abs]
    (default 1e-12), whichever is laxer. *)

val clamp : lo:float -> hi:float -> float -> float
(** [clamp ~lo ~hi x] restricts [x] to the closed interval [lo, hi].
    Requires [lo <= hi]. *)

val logspace : float -> float -> int -> float array
(** [logspace a b n] is [n] logarithmically spaced points from [a] to
    [b] inclusive: their log10 values are evenly spaced. Requires
    [0 < a], [0 < b], [n >= 2]. *)

val fold_range : int -> init:'a -> f:('a -> int -> 'a) -> 'a
(** [fold_range n ~init ~f] folds [f] over [0 .. n-1]. *)
