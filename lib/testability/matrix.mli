module Netlist := Circuit.Netlist

(** The fault detectability matrix (paper Figure 5) and its
    ω-detectability companion (paper Table 2).

    Rows are circuit {e views} — in the paper, the DFT test
    configurations C₀…C₆ — and columns are faults. The module is
    deliberately independent of how views are produced: the
    multi-configuration transform supplies them, but any family of
    netlists sharing the faulty elements works (e.g. different probe
    points). The campaign that fills it is [Mcdft_core.Adaptive.build],
    which solves every grid point of one representative view per cone
    class and gives every other member of the class the
    representative's rows: the matrix is always full-height, one row
    per view. *)

type view = { label : string; netlist : Netlist.t; probe : Detect.probe }

type t = {
  views : view array;
  faults : Fault.t array;
  detect : bool array array;  (** [detect.(i).(j)]: fault j detectable in view i. *)
  omega : float array array;  (** ω-detectability of fault j in view i. *)
  verdicts : Bytes.t array array;
      (** [verdicts.(i).(j)]: fault j's verdict row in view i, one byte
          per grid point, ['d'] where the fault is detectable — exactly
          what {!Detect.score_rows} decided. The campaign's one
          per-point detectability record: [detect] and [omega] are its
          {!Detect.result_of_verdicts} reduction, and the test planner
          and the fault dictionary read it instead of simulating
          again. *)
  deviations : float array array array;
      (** [deviations.(i).(j)]: fault j's signed magnitude deviation
          row in view i, one float per grid point — the deviation row
          {!Detect.score_rows} returned beside the verdicts, 0 at every
          masked point (below the floor, a dead or numerically dead
          view, an isolated fault's row). The campaign's per-point
          analog record: the trajectory dictionary reads it instead of
          simulating again. Rows are shared between views of one cone
          class, and every row that solved no point is one shared
          all-zero array: never mutate one. *)
  nominal : float array array;
      (** [nominal.(i)]: view i's fault-free [|H|] at every grid point,
          0 at its masked points ({!Detect.measured_nominal}) — the
          reference a tester's logged magnitudes are compared against.
          Shared between views of one cone class. *)
}

val n_views : t -> int
val n_faults : t -> int

val detectable_at : t -> int -> int -> int -> bool
(** [detectable_at t i j k]: whether fault [j] is detectable at grid
    point [k] of view [i] — its verdict byte. *)

val max_fault_coverage : t -> float
(** Fraction of faults detectable in at least one view — the maximum
    fault coverage achievable by any configuration set. *)
