module Netlist := Circuit.Netlist

(** Fault models for analog circuits.

    The paper's fault universe is the set of soft (parametric) faults:
    a ±x % deviation of each passive component value. Catastrophic
    faults (opens and shorts) are provided as an extension; they are
    modelled by replacing the element with an extreme but finite
    resistance so the circuit stays solvable. *)

type kind =
  | Deviation of float
      (** Multiplicative factor applied to the nominal value:
          [Deviation 1.2] is a +20 % soft fault. *)
  | Open_circuit  (** Element replaced by a 1 GΩ resistance. *)
  | Short_circuit  (** Element replaced by a 1 mΩ resistance. *)

type t = { id : string; element : string; kind : kind }
(** A single fault: [element] names the component affected, [id] is a
    stable human-readable identifier such as ["R1+20%"]. *)

exception Unknown_element of string
(** A fault names an element absent from the analyzed netlist. Carried
    through to the CLI's typed error router (exit 4). *)

val open_resistance : float
val short_resistance : float

val deviation : element:string -> float -> t
(** [deviation ~element:"R1" 1.2] is the +20 % fault on R1. *)

val deviation_faults : ?factor:float -> Netlist.t -> t list
(** One [Deviation factor] fault per passive component, in netlist
    order. [factor] defaults to 1.2 (+20 %), matching the paper. *)

val both_deviations : ?factor:float -> Netlist.t -> t list
(** Both +x % and -x % faults per passive component. *)

val catastrophic_faults : Netlist.t -> t list
(** Open and short faults for every passive component. *)

val inject : t -> Netlist.t -> Netlist.t
(** Apply the fault to a netlist. Works on any netlist containing an
    element with the fault's name — in particular on every DFT
    configuration view, since the multi-configuration transform
    preserves passive elements. Raises {!Unknown_element} when the
    element is absent. *)
