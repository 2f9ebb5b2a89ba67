(** The multi-pass netlist linter.

    Orchestrates the analysis passes into one sorted finding list:

    - {e validation} — every {!Circuit.Validate} issue becomes a V0xx
      finding (V001 empty netlist … V008 opamp drive conflict);
    - {e structural rank} — {!Structural} findings S001–S003 on the
      functional netlist;
    - {e configuration space} — every configuration of the DFT view is
      emulated and checked: validation failures (C001), structural
      singularity (C002), broken test-input chains (C003), and
      structurally equivalent configuration pairs (C004, info);
    - {e detectability} — faults no test configuration can structurally
      observe (F001), plus a summary of the prunable
      (configuration, fault) pairs (P001, info);
    - {e interval certification} — faults whose undetectability at the
      paper's fixed ε = 0.1 is {e certified} by the interval abstract
      interpreter ({!Certify}) at every probed frequency in every test
      configuration (F002), plus a summary of the statically provable
      verdict fraction (P002, info). Gated by the certification work
      cap so lint stays fast on large configuration spaces.

    The configuration-space passes only run when the netlist is free of
    error-severity findings — cascading diagnostics out of a broken
    netlist helps nobody. *)

type src = { file : string; lines : (string * int) list }
(** Where the netlist came from: [lines] maps element names to the
    1-based source line that declared them (see
    {!Spice.Parser.parse_file_with_lines}). *)

val loc_of : src option -> string -> Finding.loc option
(** Look an element name up in the source table. *)

val netlist_findings : ?src:src -> Circuit.Netlist.t -> Finding.t list
(** Validation plus structural-rank findings on one netlist. *)

val value_signature :
  ?sources:Mna.Assemble.source_mode ->
  ?locked_elements:string list ->
  Circuit.Netlist.t ->
  string
(** A value-exact signature of the netlist's assembled MNA system,
    canonical up to per-row sign: two netlists with equal signatures
    assemble the same A(s)x = b(s) after negating some equations, so
    every response derived from either is identical — negating an
    equation (both matrix row and excitation entry) is exact in IEEE
    arithmetic and does not move the solution.

    [locked_elements] names elements whose equations must match
    {e without} any sign flip — rows they stamp into (matrix or
    excitation, whatever the stamp's value) keep their assembled sign
    and are marked in the signature. A campaign pruner passes its fault
    universe here: with those rows locked, equal signatures imply
    equal {e faulty} responses too (a rank-1 perturbation or a
    structural re-assembly lands in sign-identical equations).
    [sources] (default [Nominal]) must match the assembly mode of the
    consumer. The signature is a binary string; coefficients are
    emitted as their IEEE bits, so equality is bit-exact.

    Cost: one stamping pass over the elements and a sort of the
    stamps, O(s log s) for s stamps — linear in the view's nonzeros up
    to the log, never the n² of a dense scan. *)

val configuration_findings :
  ?src:src ->
  ?follower_model:Circuit.Element.opamp_model ->
  ?max_opamps:int ->
  Multiconfig.Transform.t ->
  Finding.t list
(** The configuration-space and detectability passes. When the circuit
    has more than [max_opamps] opamps (default 10, i.e. 1024
    configurations) the pass is skipped with an info finding instead of
    exploding. *)

val run :
  ?src:src ->
  ?follower_model:Circuit.Element.opamp_model ->
  ?source:string ->
  ?output:string ->
  Circuit.Netlist.t ->
  Finding.t list
(** The whole pipeline, sorted by severity then source line. The
    configuration-space passes need a driving [source] and an observed
    [output] and a netlist with at least one opamp and no
    error-severity finding; otherwise they are skipped silently. *)
