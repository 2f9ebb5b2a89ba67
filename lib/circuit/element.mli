(** Circuit elements.

    Nodes are named by strings; the ground node is ["0"]. Controlled
    sources that sense a current (CCVS, CCCS) reference the name of a
    voltage source whose branch current is the controlling quantity,
    following SPICE conventions. *)

type node = string

type opamp_model =
  | Ideal  (** Nullor: infinite gain, the solver enforces v+ = v-. *)
  | Single_pole of { dc_gain : float; pole_hz : float }
      (** A(s) = dc_gain / (1 + s / (2 pi pole_hz)). *)

type t =
  | Resistor of { name : string; n1 : node; n2 : node; value : float }
  | Capacitor of { name : string; n1 : node; n2 : node; value : float }
  | Inductor of { name : string; n1 : node; n2 : node; value : float }
  | Vsource of { name : string; npos : node; nneg : node; value : float }
      (** Independent voltage source; [value] is the AC amplitude. *)
  | Isource of { name : string; npos : node; nneg : node; value : float }
  | Vcvs of { name : string; npos : node; nneg : node; cpos : node; cneg : node; gain : float }
  | Vccs of { name : string; npos : node; nneg : node; cpos : node; cneg : node; gm : float }
  | Ccvs of { name : string; npos : node; nneg : node; vsense : string; r : float }
  | Cccs of { name : string; npos : node; nneg : node; vsense : string; gain : float }
  | Opamp of { name : string; inp : node; inn : node; out : node; model : opamp_model }
      (** Single-ended opamp: output referenced to ground. *)

val ground : node

val name : t -> string
val nodes : t -> node list
(** All terminals of the element, in declaration order. *)

val value : t -> float option
(** The scalar parameter of the element (resistance, capacitance,
    gain, ...); [None] for elements without one (ideal opamps). *)

val with_value : t -> float -> t
(** Replace the scalar parameter; raises [Invalid_argument] for
    elements without one. *)

val is_passive : t -> bool
(** True for R, L, C — the fault universe of the paper. *)
