(** Structural influence analysis: which elements can affect an output
    at all.

    The paper's conclusion names its bottleneck — "the fault
    detectability matrix construction that implies extensive fault
    simulation" — and proposes "using structural information to select
    a first subset of configurations" as future work. This module is
    that structural pass: a backward reachability over the netlist
    graph that soundly over-approximates the set of elements able to
    influence the output voltage. An element outside the set is
    {e guaranteed} undetectable (its faults cannot move the output);
    elements inside may or may not be detectable, which fault
    simulation then decides.

    Propagation rules (ideal elements):
    - a passive element couples its two terminals symmetrically, but
      only through terminals that are not {e stiff} (driven by an ideal
      source: a V source's positive node or a VCVS/opamp output, with
      the other terminal grounded);
    - an opamp or VCVS propagates influence from its output to its
      controlling nodes;
    - current-controlled sources propagate to the terminals of their
      sensing source. *)

type t

val analyse : output:string -> Netlist.t -> t

val influential_nodes : t -> string list
(** Nodes whose voltage can affect the output, sorted. *)

val can_affect_output : t -> string -> bool
(** [can_affect_output t element] — false means faults on [element]
    are structurally undetectable at the output. Raises [Not_found]
    for an unknown element. *)

val influential_passives : t -> string list
(** The passive elements that can affect the output, in netlist
    order — the candidate fault set worth simulating. *)

val drives_output : t -> string -> bool
(** [drives_output t source] — whether the independent source [source]
    can move the output at all: a voltage source when one of its
    non-ground terminals is influential, any other element when
    {!can_affect_output} holds. False means the output does not depend
    on the stimulus — the transfer from [source] is exactly zero in
    exact arithmetic, whatever the element values. Raises [Not_found]
    for an unknown element. *)

val cone : t -> Netlist.t option
(** The output's cone sub-circuit: every element whose stamps reach an
    MNA row that fixes the output — passives with a soft influential
    terminal, the drivers of influential stiff nodes, sources touching
    the set, transconductances into soft nodes — in netlist order, with
    any terminal outside the set tied to ground. Its system solves the
    output exactly in exact arithmetic whatever the element values: the
    rows of soft nodes and the drivers' equations read only cone
    unknowns, and a stiff node's row only fixes its driver's current
    (DESIGN §13). [None] where that argument does not hold: a floating
    voltage source or VCVS, a controlled source whose controls leave
    the set, a current-controlled source touching it, a stiff node with
    two drivers, or an output no kept element touches. *)
