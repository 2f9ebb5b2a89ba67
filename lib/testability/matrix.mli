module Netlist := Circuit.Netlist

(** The fault detectability matrix (paper Figure 5) and its
    ω-detectability companion (paper Table 2).

    Rows are circuit {e views} — in the paper, the DFT test
    configurations C₀…C₆ — and columns are faults. The module is
    deliberately independent of how views are produced: the
    multi-configuration transform supplies them, but any family of
    netlists sharing the faulty elements works (e.g. different probe
    points). The campaign that fills it is [Mcdft_core.Adaptive.build],
    which solves every grid point. *)

type view = { label : string; netlist : Netlist.t; probe : Detect.probe }

type t = {
  views : view array;
  faults : Fault.t array;
  detect : bool array array;  (** [detect.(i).(j)]: fault j detectable in view i. *)
  omega : float array array;  (** ω-detectability of fault j in view i. *)
}

val n_views : t -> int
val n_faults : t -> int

val detectable_anywhere : t -> int -> bool
(** Whether fault [j] is detectable in at least one view. *)

val max_fault_coverage : t -> float
(** Fraction of faults detectable in at least one view — the maximum
    fault coverage achievable by any configuration set. *)

val coverage_of_view : t -> int -> float
(** Fault coverage of a single view. *)

val best_omega_det : t -> int -> float
(** Max over views of the ω-detectability of fault [j]. *)

val best_omega_det_over : t -> int list -> int -> float
(** Max over the given view subset. *)

val average_best_omega_det : ?views:int list -> t -> float
(** The paper's ⟨ω-det⟩ figure of merit: each fault tested in its best
    view among [views] (default: all), averaged over faults. *)

val column : t -> int -> bool array
val row : t -> int -> bool array
