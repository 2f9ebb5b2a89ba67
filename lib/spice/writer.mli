module Netlist := Circuit.Netlist

(** Render a netlist back to the SPICE-flavoured format accepted by
    {!Parser} — [Parser.parse_string (Writer.to_string n)] reproduces
    every element of [n] exactly: names, nodes, and values bit for bit
    (a value prints in engineering notation when that reads back
    exactly, otherwise with round-trip digits). Opamps print as
    [name inp inn out OPAMP], which the parser reads under any element
    name. *)

val to_string : Netlist.t -> string
val to_file : string -> Netlist.t -> unit
