(** The covering problem ξ = ∏_faults (Σ_configs d_ij · C_i) in
    product-of-sums form (paper §4.1), generalized to {e multiplicity}
    covering in the spirit of n-detection test generation (Pomeranz &
    Reddy, arXiv:0710.4735): each clause carries a required count
    [need], and a solution must pick at least [need] distinct
    candidates from every clause. [need = 1] is the paper's classical
    unate covering.

    Candidates are identified by integers (configuration indices); each
    clause is the set of candidates that detect one fault. *)

module IntSet : Set.S with type elt = int

type clause = {
  lits : IntSet.t;  (** Candidates that detect this fault. *)
  need : int;  (** How many distinct [lits] a solution must include (≥ 1). *)
  tag : int;
      (** Caller-meaningful identity, reported on infeasibility — the
          fault column for matrix-built systems, the list position for
          {!of_sets}. *)
}

type t = { n_candidates : int; clauses : clause list }

val of_sets : n_candidates:int -> IntSet.t list -> t
(** Classical (need = 1) system from plain candidate sets; clause [i]
    gets [tag = i]. *)

val of_matrix : ?n:int -> bool array array -> t
(** [of_matrix ~n d] where [d.(i).(j)] says candidate [i] covers fault
    [j]; clause [j] requires [min n (detecting candidates)] hits
    ([n] defaults to 1). Faults covered by no candidate are skipped and
    faults with fewer than [n] detecting candidates keep their
    achievable multiplicity — the fundamental requirement is to reach
    the {e maximum achievable} coverage; see {!uncoverable_faults} and
    {!short_faults} for the report. *)

val of_matrix_exact : n:int -> bool array array -> t
(** Like {!of_matrix} but every clause requires exactly [n] hits, with
    no capping and no skipping — columns with fewer than [n] detecting
    candidates (including zero) yield unsatisfiable clauses, which the
    solvers report as [Infeasible] naming those tags. *)

val uncoverable_faults : bool array array -> int list
(** Fault columns with no covering candidate. *)

val short_faults : n:int -> bool array array -> (int * int) list
(** [(fault, available)] for columns detectable in at least one but
    fewer than [n] candidates — the faults whose multiplicity
    {!of_matrix} had to cap. *)

val essentials : t -> IntSet.t
(** Candidates forced into every solution: all literals of any clause
    with zero slack ([cardinal lits = need]) — for need = 1 exactly the
    paper's essential configurations from singleton clauses. *)

val reduce : t -> chosen:IntSet.t -> t
(** Subtract [chosen] from the system: clauses already hit ≥ [need]
    times are dropped, the rest lose the chosen literals and keep the
    residual requirement — the paper's reduced fault detectability
    matrix, generalized to residual multiplicities. *)

val is_cover : t -> IntSet.t -> bool
(** Does the candidate set satisfy every clause? True on the empty
    clause list. *)

val infeasible_tags : t -> int list
(** Tags of clauses no candidate set can satisfy ([cardinal lits <
    need]), in clause order — empty exactly when the system is
    feasible. *)

val candidates : t -> IntSet.t
(** All candidates appearing in at least one clause. *)

val pp : Format.formatter -> t -> unit
(** Render as the paper does: (C0+C2+C4+C6).(C2+C4+C6)...; clauses with
    need > 1 carry a [>=n] suffix. *)
