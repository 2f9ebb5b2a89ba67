module Netlist := Circuit.Netlist

(** A SPICE-flavoured netlist reader.

    Supported cards (case-insensitive leading letter, engineering
    suffixes on values):
    - [R/C/L name n1 n2 value]
    - [V/I name n+ n- [AC] value] — independent sources
    - [E name n+ n- c+ c- gain] — VCVS; [G ... gm] — VCCS
    - [H name n+ n- vsense r] — CCVS; [F name n+ n- vsense gain] — CCCS
    - [X name inp inn out OPAMP [A0=val] [FP=val]] — opamp macro;
      ideal when A0/FP are omitted. The [OPAMP] token marks the card,
      so any element name works ([U1 …] as {!Writer} prints it); [X]
      and [O] are the convention
    - [.subckt NAME port...] … [.ends] — subcircuit definition;
      [Xinst node... NAME] instantiates it. Instances are flattened:
      element names and internal nodes get the instance prefix
      ("inst.R1", "inst.n1"), ports map to the instance terminals,
      ground stays global, and definitions may instantiate other
      definitions (nesting depth is bounded to catch recursion).
      Current-sense references (H/F cards) must stay within the same
      subcircuit.
    - [.title ...], [.end], blank lines, [*] comment lines, [;] inline
      comments, [+] continuation lines.

    The first line is the title, as in SPICE. *)

type error = { line : int; message : string }

val error_to_string : error -> string

val parse_string : string -> (Netlist.t, error) result
val parse_file : string -> (Netlist.t, error) result
(** Raises [Sys_error] when the file cannot be read. *)

val parse_file_with_lines : string -> (Netlist.t * (string * int) list, error) result
(** Like {!parse_file}, additionally returning a side table mapping
    each element name to the 1-based source line of the card that
    declared it. Continuation lines map to their opening line; elements
    flattened out of a subcircuit instance keep the line of the
    definition body card, under their prefixed instance name
    ("inst.R1"). The table feeds diagnostics — the netlist itself is
    unchanged, so writer round-trips are unaffected. Raises
    [Sys_error] when the file cannot be read. *)
