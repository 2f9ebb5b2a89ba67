module Netlist := Circuit.Netlist

(** Interval-certified detectability — a static analysis that proves
    campaign verdicts without solving.

    For each (configuration view × fault) cell the exact symbolic
    transfer functions H₀(s) and H_f(s) ({!Mna.Symbolic}) are evaluated
    over whole frequency intervals with outward-rounded interval
    arithmetic ({!Util.Interval}, {!Linalg.Ratfunc.magnitude_jw_box}).
    Recursive bisection of the log-frequency axis classifies each
    region: where the enclosure of the relative magnitude deviation
    |‖H_f‖ − ‖H₀‖| / ‖H₀‖ provably clears the ε threshold (with a
    safety margin) the region is {!Certified_detectable}; where it
    provably stays under (and both denominators are bounded away from
    zero) it is {!Certified_undetectable}; residual regions —
    threshold crossings, poles, exhausted budget — stay {!Unknown}.

    Soundness chain: interval evaluation encloses every real point
    value of the float-coefficient rational form; a relative widening
    of each band's ω enclosure covers the engine's actual float
    evaluation points; the classification margin absorbs the numeric
    engine's own round-off; and each extracted transfer is validated
    against the independent {!Mna.Ac} reference at spread probe points
    (a failed validation degrades the whole view to Unknown rather
    than risking a wrong certificate). The certify-soundness
    conformance oracle adversarially re-checks all of this against the
    numeric engine on every generator family. *)

type view_spec = {
  label : string;  (** e.g. a configuration label such as ["C3"]. *)
  netlist : Netlist.t;  (** The emulated view, faults injectable. *)
  source : string;
  output : string;
}

type verdict = Certified_detectable | Certified_undetectable | Unknown

type region = {
  band : Util.Interval.t;  (** In log10(Hz), a bisection leaf. *)
  verdict : verdict;
}

type cell = {
  fault : Fault.t;
  regions : region list;
      (** Bisection leaves in ascending band order, tiling the whole
          (slightly widened) grid range. *)
  verdicts : Bytes.t;
      (** One byte per grid point: ['d' | 'u' | '?'] — the verdict of
          the first leaf containing the point's log-frequency. *)
}

type view_result = {
  spec : view_spec;
  validated : bool;
      (** False when the view was gated out (dimension cap, singular
          symbolic extraction, failed probe validation); all its cells
          are then Unknown. *)
  cells : cell array;  (** One per fault, in input order. *)
}

type stats = {
  cells : int;
  cells_proved : int;  (** Cells with no ['?'] point left. *)
  points : int;
  points_proved : int;  (** Grid points certified across all cells. *)
  skipped_views : int;
}

type t = {
  eps : float;
  margin : float;
  n_points : int;
  freqs_hz : float array;
  views : view_result array;
  stats : stats;
}

val default_work_cap : int
(** 256 symbolic extractions per {!certify} call — the knob bounding
    the pass's cost on circuits with hundreds of configuration
    views. *)

val certify :
  ?work_cap:int ->
  eps:float ->
  freqs_hz:float array ->
  view_spec list ->
  Fault.t list ->
  t
(** Run the abstract interpreter over every (view × fault) cell for
    the {!Fixed_tolerance}-style criterion |ΔT|/|T| > [eps] on the
    given frequency grid (Hz, ascending). Never raises on singular or
    ill-posed views — they degrade to Unknown. Raises
    [Invalid_argument] when [eps <= 0].

    Each cell spends at most 256 interval evaluations; views above 40
    MNA unknowns are gated out of symbolic extraction; a certificate
    must clear ε by a 2 % relative margin, the room left for the
    numeric engine's own rounding. *)

val verdict_cube : t -> Bytes.t option array array
(** Per-[view][fault] verdict bytes for the campaign engine — [Some]
    only for validated cells with at least one certified point. *)

val byte_of_verdict : verdict -> char
(** The byte {!verdict_cube} stores for a verdict. *)
