module Netlist := Circuit.Netlist
(** Generic MNA stamping, parametric in the coefficient field.

    Produces the system [A x = b] for a netlist: Kirchhoff current
    equations for every non-ground node followed by one branch equation
    per group-2 element. The functor is instantiated with a complex
    field (numeric AC analysis at a fixed ω) or with the polynomial
    field (symbolic transfer functions). *)

type source_mode =
  | Nominal  (** Every independent source keeps its declared amplitude. *)
  | Only of string
      (** The named independent source is driven with unit amplitude;
          all others are zeroed. Used for transfer functions. *)

module Make (F : Field.S) : sig
  type system = { matrix : F.t array array; rhs : F.t array }

  val assemble : ?sources:source_mode -> Index.t -> Netlist.t -> system
  (** Raises [Not_found] if a current-sensing element references a
      voltage source absent from the index (catch earlier with
      {!Validate.check}). *)

  val stamp_element :
    sources:source_mode ->
    add_m:(int option -> int option -> F.t -> unit) ->
    add_b:(int option -> F.t -> unit) ->
    Index.t ->
    Circuit.Element.t ->
    unit
  (** The stamping rules behind {!assemble} for one element, delivered
      through callbacks: [add_m i j v] accumulates [v] at matrix
      position [(i, j)] and [add_b i v] into the excitation row [i],
      with [None] standing for ground (callers drop those). Called on
      every element in netlist order, it delivers the stamps in exactly
      the accumulation order {!assemble} produces, so any storage
      layout built through these callbacks holds entry-for-entry
      identical sums, and a caller can tell which element each stamp
      comes from. *)
end
