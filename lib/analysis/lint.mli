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
      (configuration, fault) pairs (P001, info).

    The configuration-space passes only run when the netlist is free of
    error-severity findings — cascading diagnostics out of a broken
    netlist helps nobody. *)

type src = { file : string; lines : (string * int) list }
(** Where the netlist came from: [lines] maps element names to the
    1-based source line that declared them (see
    {!Spice.Parser.parse_file_with_lines}). *)

val netlist_findings : ?src:src -> Circuit.Netlist.t -> Finding.t list
(** Validation plus structural-rank findings on one netlist. *)

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
    error-severity finding; otherwise they are skipped silently. When
    the circuit has more than 10 opamps (1024 configurations) they are
    skipped with an info finding instead of exploding. *)
