(** Structural (pattern-only) rank analysis of the MNA system.

    The MNA matrix A(s) = G + sC of a netlist has entries affine in s;
    its determinant is identically zero — i.e. the dense LU
    ({!Linalg.Cmat.lu_factor}) raises [Linalg.Cmat.Singular] at
    {e every} frequency, regardless of component values — whenever the
    bipartite occurrence graph (equations x unknowns, an edge per
    nonzero entry) has no perfect matching. Maximum matching over that
    pattern therefore predicts a whole class of runtime solver failures
    statically: voltage-source loops, current-source cutsets,
    nullor-degenerate opamp wirings, zero rows/columns.

    Three regimes are checked:
    - {e generic} — the pattern of A(s) itself. A deficiency here is an
      error: the system is singular at every frequency.
    - {e DC} — the pattern of A(0) (capacitor stamps vanish). A
      deficiency means the circuit has no DC solution (e.g. a pure
      integrator outside a resistive feedback loop, a node reached only
      through capacitors); the AC sweep never evaluates ω = 0, so this
      is a warning about near-DC conditioning, not a campaign stopper.
    - {e ω→∞} — the pattern of the high-frequency limit netlist
      (capacitors shorted, inductors opened, finite-GBW opamp outputs
      collapsed to ground). A deficiency means the system degenerates
      as ω grows (e.g. an inductor-only cutset).

    A matching can exist while the matrix is still numerically singular
    (a ground-disconnected island has full structural rank but a zero
    eigenvalue), so the verdict also folds in ground reachability: the
    {!is_singular} predicate is sound — [true] guarantees
    [Cmat.Singular] — and on randomly-valued netlists the converse
    holds with probability one (pinned by a qcheck property and the
    [structural-vs-lu] oracle, both against that same LU; the LU itself
    is pinned bitwise by test_planar's boxed reference). *)

type regime = Generic | Dc | High_frequency

type deficiency = {
  regime : regime;
  rank : int;  (** Size of the maximum matching. *)
  size : int;  (** Dimension of the MNA system in this regime. *)
  equations : string list;
      (** A Hall violator: human-readable names of structurally
          dependent equations ("KCL at node m1", "branch equation of
          V2"). *)
  unknowns : string list;
      (** The unknowns those equations constrain — strictly fewer of
          them than equations ("V(in)", "I(V1)"). *)
  elements : string list;
      (** Netlist elements appearing in the violator, for anchoring
          diagnostics to source lines. *)
}

type t = {
  size : int;  (** MNA dimension of the full netlist. *)
  generic : deficiency option;
  dc : deficiency option;
  hf : deficiency option;
  hf_floating : string list;
      (** Nodes whose every connection is an inductor — floating in the
          ω→∞ limit. *)
  disconnected : string list;
      (** Nodes with no path to ground (from {!Circuit.Validate});
          structurally matched but numerically singular. *)
}

val analyse : Circuit.Netlist.t -> t

val is_singular : t -> bool
(** [true] iff the netlist is guaranteed to make the dense LU raise
    [Cmat.Singular] at every frequency: a generic-pattern deficiency or a
    ground-disconnected island. *)

val deficiency_message : deficiency -> string

val findings : ?config:string -> loc_of:(string -> Finding.loc option) -> t -> Finding.t list
(** Findings S001 (generic, error), S002 (DC, warning), S003 (ω→∞,
    warning). Ground-disconnection is {e not} re-reported here — it is
    already a validation finding. [loc_of] maps an element name to its
    source location, if known. *)
