module Netlist := Circuit.Netlist
module Element := Circuit.Element
(** Unknown-vector indexing for Modified Nodal Analysis.

    The MNA unknown vector stacks one voltage per non-ground node and
    one branch current per "group-2" element (independent and
    controlled voltage sources, inductors, opamp outputs). The index is
    built once per netlist and shared by the numeric and symbolic
    assemblers. *)

type t

val build : Netlist.t -> t

val size : t -> int
(** Total number of unknowns. *)

val node : t -> string -> int option
(** Index of a node voltage; [None] for ground. Raises
    [Invalid_argument] for a node absent from the netlist. *)

val branch : t -> string -> int
(** Index of the branch current of element [name]; raises [Not_found]
    when the element carries no branch-current unknown. *)

val has_branch : t -> string -> bool
val node_names : t -> string array
(** Node names in index order (indices [0 .. number of nodes - 1]). *)

