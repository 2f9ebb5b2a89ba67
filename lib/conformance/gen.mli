module Netlist := Circuit.Netlist

(** Seeded random-circuit generation — the fuzzer's topology families.

    The raw generator {!bigladder} takes a [Random.State.t] so property
    tests can drive it from their own seeds; {!generate} wraps every
    family's generator into a self-describing {!subject} derived purely from a
    [(family, seed)] pair, the unit of deterministic replay. All
    generated netlists drive node ["n0"] from source ["V1"] (actives
    use dedicated stage nodes) and name elements with the conventions
    the original ad-hoc test generators used (RS/RP/CP/LP per ladder
    stage), so shrunk repro fixtures read like the test fixtures that
    predate them. *)

type family =
  | Ladder  (** Series/shunt R-C-L ladders, always solvable. *)
  | Soup
      (** Ladder + optional bridge + one of three hazards: a
          voltage-source loop, a nullor with shorted inputs, or a
          healthy feedback opamp — the structural-analysis stressor.
          May be genuinely singular. *)
  | Active_chain
      (** Randomized 1-3 opamp stages (inverting amp, lossy-integrator
          cascade, or a full Tow-Thomas loop), solvable in the
          functional configuration with well-posed DFT views — the
          multiconfig / campaign stressor. *)
  | Near_singular
      (** Ladders with pathological value spreads (up to ~12 decades
          between neighbouring impedances), solvable in exact
          arithmetic — the LU-threshold and refinement stressor. *)
  | Bigladder
      (** Two long RC ladders (hundreds of stages, seed-parameterized)
          bridged by a three-buffer opamp chain — the sparse back-end
          scale stressor and the campaign-pruning showcase. Not in the
          default rotation; request it explicitly. *)

val families : family list
(** The default fuzzing rotation ({!Bigladder} excluded — it is
    opt-in). *)

val all_families : family list
(** Every family, including the opt-in ones. *)

val family_name : family -> string
val family_of_string : string -> family option

type subject = {
  label : string;  (** e.g. ["ladder#417"] — family and seed. *)
  netlist : Netlist.t;
  source : string;  (** Driving voltage source. *)
  output : string;  (** Observed output node. *)
}

val bigladder : ?stages:int -> Random.State.t -> Netlist.t * string
(** Two RC ladder sections of [stages] total stages (default: drawn in
    100–450) bridged by a three-buffer opamp chain; always solvable,
    hundreds of MNA unknowns with a handful of nonzeros per row. *)

val generate : family -> seed:int -> subject
(** Deterministic: the same [(family, seed)] pair always yields the
    same subject, independent of any global RNG state. *)
