(** Dense complex matrices and vectors with LU-based solving.

    This is the dense numeric kernel behind the MNA analyses: every
    AC sweep, fault campaign, adjoint sensitivity, noise analysis,
    transient step and symbolic determinant sample factors through
    the one partial-pivoting LU here. Matrices above the sparse
    crossover use {!Csparse} instead, with the same numeric
    conventions.

    Storage is planar ("split complex") and off-heap: the real and
    imaginary planes of a matrix or vector are separate float64
    [Bigarray.Array1] planes, so the O(n³) factorization and O(n²)
    solve/matvec kernels never allocate, never chase a [Complex.t] box,
    and hold nothing the GC has to scan. The boxed [Complex.t] API
    remains at the edges ([get]/[set]/[of_arrays]/{!solve}); hot
    callers own {!Vec} and {!lu} workspaces and use the [_into]
    kernels.

    The independent reference is [test_planar]'s boxed [Ref], a
    [Complex.t array array] Doolittle LU: the kernels here must match
    it bitwise, permutation sign and {!Singular} verdicts included. *)

type plane = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

exception Singular
(** Raised by factorization when the matrix is numerically singular. *)

(** Preallocated planar complex vectors: the workspace type of the
    allocation-free solve API. The [re]/[im] fields are exposed on
    purpose — hot loops index the raw planes directly. Both planes
    always have the same length. *)
module Vec : sig
  type t = { re : plane; im : plane }

  val create : int -> t
  (** [create n] is the zero vector of length [n]. *)

  val length : t -> int
  val get : t -> int -> Complex.t
  val set : t -> int -> Complex.t -> unit
  val of_complex : Complex.t array -> t
  val to_complex : t -> Complex.t array

  val norm_inf : t -> float
  (** Largest element magnitude ([Complex.norm] semantics). *)

  val prefix : t -> int -> t
  (** [prefix v n] is the vector of [v]'s first [n] elements, sharing
      its storage ([v] itself when [n] is its length). *)
end

type t
(** A dense [rows x cols] complex matrix. *)

val create : int -> int -> t
(** [create rows cols] is the zero matrix. *)

val prefix : t -> int -> t
(** [prefix m n] is an [n x n] matrix on the first [n²] elements of
    [m]'s planes, sharing their storage ([m] itself when it is
    [n x n]): one buffer serves every system up to its size. Raises
    [Invalid_argument] when [m] holds fewer than [n²] elements. *)

val reshape : t -> rows:int -> cols:int -> t
(** [reshape m ~rows ~cols] is a [rows x cols] matrix on the leading
    elements of [m]'s planes, shared without a copy: one grown-only
    buffer serves blocks of every shape up to its size. Raises [Invalid_argument] when [m]
    holds fewer elements. *)

val rows : t -> int
val cols : t -> int

val re_plane : t -> plane
val im_plane : t -> plane
(** The raw row-major storage planes — for kernels outside this
    module (the sparse back-end) that stream whole blocks. *)

val get : t -> int -> int -> Complex.t
val set : t -> int -> int -> Complex.t -> unit

val add_to : t -> int -> int -> Complex.t -> unit
(** [add_to m i j v] accumulates [v] into entry [(i, j)] — the
    stamping primitive used by MNA. *)

val of_arrays : Complex.t array array -> t
(** A matrix from boxed rows; raises [Invalid_argument] on ragged
    rows. *)

type lu
(** A reusable partial-pivoting LU workspace of a square matrix. It
    owns its factor storage: sweeps call {!lu_factor_into} once per
    frequency point on the same workspace and allocate nothing. *)

val lu_create : int -> lu
(** Workspace for [n x n] factorizations. *)

val lu_prefix : lu -> int -> lu
(** [lu_prefix w n] is a workspace for [n x n] factorizations on the
    storage of [w], a workspace for at least that size ({!prefix}).
    Factoring into it overwrites [w]'s factor. *)

val lu_factor_into : lu -> t -> unit
(** Factorize [a] into the workspace; the input is not modified.
    Raises {!Singular} when a pivot falls to the growth-aware
    threshold [1e-300 + n·4·ε·max|aᵢⱼ|]. *)

val lu_factor : t -> lu
(** One-shot convenience: [lu_create] + [lu_factor_into]. *)

val lu_solve_into : lu -> b:Vec.t -> x:Vec.t -> unit
(** Solve [A x = b] into [x] without allocating; [b] is not modified.
    [b] and [x] must be distinct (aliasing them corrupts the
    permutation step). *)

val solve : t -> Complex.t array -> Complex.t array
(** One-shot boxed [solve a b]: factorizes a fresh workspace; raises
    {!Singular}. *)

val determinant : lu -> Complex.t
(** Determinant of the last matrix factorized into the workspace:
    permutation sign times the product of the U diagonal. A singular
    matrix never gets here — its factorization raised {!Singular}. *)
