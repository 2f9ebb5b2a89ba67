(** Test configurations of the multi-configuration DFT technique.

    A circuit with n configurable opamps has 2ⁿ configurations. In
    configuration C_i, opamp k (1-based, in chain order) is in follower
    mode iff bit (k-1) of i is set — i.e. sel₁ is the least significant
    bit. This resolves the paper's notation (Table 3 maps C₁ ↦ Op1 and
    §4.3 writes C₅ = (1 0 1) = followers {OP1, OP3}). C₀ is the
    functional configuration; C_{2ⁿ-1} is the transparent one. *)

type t
(** A configuration of a circuit with a fixed number of opamps. *)

val make : n_opamps:int -> int -> t
(** [make ~n_opamps i] is C_i. Raises [Invalid_argument] unless
    [0 <= i < 2^n_opamps] and [0 <= n_opamps <= 30]. *)

val index : t -> int
val n_opamps : t -> int

val all : n_opamps:int -> t list
(** C₀ … C_{2ⁿ-1} in index order. *)

val test_configurations : n_opamps:int -> t list
(** The configurations used for passive-fault testing: all except the
    transparent one (the paper's C₀…C₆ for n = 3). Includes the
    functional configuration C₀. *)

val is_functional : t -> bool
val is_transparent : t -> bool

val follower : t -> int -> bool
(** [follower c k] is true when opamp [k] (0-based) is in follower
    mode. *)

val label : t -> string
(** ["C5"]. *)

val vector : t -> string
(** The selection vector written sel₁ sel₂ … selₙ, e.g. C₅ with n = 3
    is ["101"]. *)

val vector_partial : subset:int list -> t -> string
(** Like {!vector} but positions outside [subset] print as ['-'],
    matching the paper's "C₁ (10-)" notation. *)
