(** Immutable netlists and a builder API.

    A netlist is an ordered collection of {!Element.t} with unique
    names, indexed by name: {!find}, {!find_exn} and {!mem} are
    O(log n), and {!add}, {!replace} and {!remove} keep the index
    current. Fault injection and the multi-configuration DFT transform
    are expressed as pure netlist-to-netlist functions. Compare
    netlists through {!elements}, not with polymorphic equality: two
    equal netlists may hold differently shaped indexes. *)

type t

val empty : ?title:string -> unit -> t
val title : t -> string
val elements : t -> Element.t list
(** In insertion order. *)

val add : Element.t -> t -> t
(** Raises [Invalid_argument] if an element with the same name already
    exists. *)

val of_elements : ?title:string -> Element.t list -> t

(** {1 Convenience builders} — each appends one element. *)

val resistor : name:string -> string -> string -> float -> t -> t
val capacitor : name:string -> string -> string -> float -> t -> t
val inductor : name:string -> string -> string -> float -> t -> t
val vsource : name:string -> string -> string -> float -> t -> t
val opamp : ?model:Element.opamp_model -> name:string -> inp:string -> inn:string -> out:string -> t -> t

(** {1 Queries} *)

val find : t -> string -> Element.t option
val find_exn : t -> string -> Element.t
(** Raises [Not_found]. *)

val mem : t -> string -> bool
val nodes : t -> string list
(** All nodes, sorted, ground included when referenced. *)

val internal_nodes : t -> string list
(** Nodes excluding ground. *)

val opamps : t -> Element.t list
(** Opamp elements in insertion order. *)

val passives : t -> Element.t list
(** R, L, C elements in insertion order — the default fault universe. *)

val size : t -> int

(** {1 Transforms} *)

val replace : Element.t -> t -> t
(** Replace the element with the same name; raises [Not_found] when
    absent. *)

val remove : string -> t -> t
(** Remove by name; raises [Not_found] when absent. *)

val map_value : name:string -> f:(float -> float) -> t -> t
(** Apply [f] to the scalar parameter of element [name]; raises
    [Not_found] when absent, [Invalid_argument] when the element has no
    scalar parameter. *)
