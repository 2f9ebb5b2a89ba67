(** Closed intervals on the real line and finite unions thereof.

    Used by the testability analysis to represent frequency regions
    (in log-frequency space) where a fault is detectable. *)

type t = { lo : float; hi : float }
(** A closed interval [lo, hi] with [lo <= hi]. *)

val make : float -> float -> t
(** [make lo hi] builds the interval; raises [Invalid_argument] when
    [lo > hi] or either bound is not finite. *)

val length : t -> float
(** [length i] is [i.hi -. i.lo]. *)

val contains : t -> float -> bool
(** [contains i x] is true when [i.lo <= x <= i.hi]. *)

(** {1 Extended interval arithmetic}

    Sound enclosures for the certification pass: every operation
    rounds its bounds outward by one ulp, bounds may be infinite, and
    any indeterminate form (inf - inf, 0 * inf, division through an
    interval containing zero, NaN input) widens to the whole line
    [[-inf, inf]], the "don't know" element, rather than producing a
    NaN bound. Bounds are never NaN. *)

val point : float -> t
(** Degenerate interval [[x, x]]; [[-inf, inf]] when [x] is NaN. *)

val add : t -> t -> t
val sub : t -> t -> t

val mul : t -> t -> t
(** Endpoint products, outward-rounded; [0 * inf] widens to [[-inf, inf]]. *)

val div : t -> t -> t
(** [div a b] is [[-inf, inf]] when [b] contains zero (including a bound
    exactly at zero) — division is never trusted near a pole. *)

val abs : t -> t
(** Absolute-value image, always a subset of [[0, inf]]; exact (no
    outward rounding — negation and max of floats are exact). *)

val sqr : t -> t
(** Square, range-aware: the result's lower bound is clamped at 0 for
    zero-straddling inputs. *)

(** {1 Rectangular complex intervals}

    A box [re + i im] in the complex plane, with its modulus built from
    the outward-rounded real ops above. *)

module Complex_box : sig
  type interval := t

  type t = { re : interval; im : interval }

  val make : interval -> interval -> t

  val abs : t -> interval
  (** Enclosure of the modulus [|z|] over the box; a subset of
      [[0, inf]]. *)
end

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
