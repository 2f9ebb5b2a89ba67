(** MNA stamping rules.

    The system [A(s) x = b(s)] of a netlist has Kirchhoff current
    equations for every non-ground node followed by one branch equation
    per group-2 element. Every stamp the element models make is affine
    in the Laplace variable, so each is delivered as its pair of s⁰ and
    s¹ coefficients; {!Stamps} records them as the one stamp run every
    numeric and symbolic reader uses. *)

type source_mode =
  | Nominal  (** Every independent source keeps its declared amplitude. *)
  | Only of string
      (** The named independent source is driven with unit amplitude;
          all others are zeroed. Used for transfer functions. *)

val stamp_element :
  sources:source_mode ->
  add_m:(int option -> int option -> float -> float -> unit) ->
  add_b:(int option -> float -> float -> unit) ->
  Index.t ->
  Circuit.Element.t ->
  unit
(** One element's stamps, delivered through callbacks: [add_m i j g c]
    adds [g + s·c] at matrix position [(i, j)] and [add_b i g c] adds
    [g + s·c] to the excitation row [i], with [None] standing for
    ground (callers drop those). Called on every element in netlist
    order, it delivers every stamp of the system in a fixed order, and
    a caller can tell which element each stamp comes from. Raises
    [Not_found] if a current-sensing element references a voltage
    source absent from the index (catch earlier with
    {!Circuit.Validate.check}). *)
