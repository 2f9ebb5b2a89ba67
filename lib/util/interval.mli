(** Closed intervals on the real line and finite unions thereof.

    Used by the testability analysis to represent frequency regions
    (in log-frequency space) where a fault is detectable. *)

type t = { lo : float; hi : float }
(** A closed interval [lo, hi] with [lo <= hi]. *)

val make : float -> float -> t
(** [make lo hi] builds the interval; raises [Invalid_argument] when
    [lo > hi] or either bound is not finite. *)

(** {1 Unions of intervals} *)

module Set : sig
  type interval := t

  type t
  (** A finite union of disjoint closed intervals, kept normalized
      (sorted, non-overlapping, non-adjacent merged). *)

  val is_empty : t -> bool

  val of_intervals : interval list -> t
  (** Normalizing constructor: merges overlapping or touching
      intervals (touching up to a 1e-9 relative slack, so intervals
      produced by adjacent grid points coalesce despite rounding). *)

  val to_intervals : t -> interval list
  (** The disjoint intervals in increasing order. *)

  val measure : t -> float
  (** Total length of the union. *)

  val pp : Format.formatter -> t -> unit
end
