module Netlist := Circuit.Netlist

(** The fault-simulation campaign engine.

    A campaign evaluates one circuit view against many faults on a
    shared frequency grid. The naive cost is a full assembly and an
    O(n³) factorization per (fault, frequency); this engine removes
    both levels of redundancy:

    - the fault-free system is split-assembled once ({!Mna.Stamps})
      and LU-factorized once per frequency, yielding the nominal
      response as a by-product;
    - a single-element deviation (or open/short replacement) of a
      passive R, C or L perturbs the MNA matrix by a rank-1 term
      α(ω)·uuᵀ with u a sparse ±1 pattern, so each faulty solve is
      a Sherman–Morrison update against the cached LU — O(n²),
      polished by one step of iterative refinement — and the A⁻¹u
      back-solves are cached across faults sharing a stamp pattern
      (the ±20 % pair on one component, or R‖C on one node pair),
      each solved only when some point first reads it;
    - every update is verified by a residual check — on a dense
      engine most points are cleared a priori by an LU backward-error
      bound, at O(|u|) instead of an O(n²) mat-vec; an
      ill-conditioned update falls back to a full refactorization of
      the perturbed matrix, and a structural fault (e.g. an inductor
      open, which changes the system dimension) falls back to a fresh
      split assembly. Either way the result matches the naive path to
      round-off.

    The engine state is planar and off-heap ({!Linalg.Cmat}: re/im
    planes in Bigarray storage the GC never scans), and the rank-1 hot
    path allocates zero GC-visible words proportional to the system:
    solve buffers live in a per-domain scratch workspace (domain-local
    storage), so an engine may be shared by several workers. Under
    OCaml 5's stop-the-world minor GC this is what lets campaign
    domains scale: the engine's numeric state contributes nothing to
    any collection.

    Parallel safety. The back-solve cache is a table of slots fixed by
    {!create}: one per distinct stamp pattern of a passive, so
    elements on one node pair share a slot. Each (slot, frequency)
    cell is an atomic that starts empty. A point solve that finds its
    cell empty back-solves the column into storage of its own and
    publishes it with a compare-and-set; a domain that loses the race
    uses the winner's column, which is bitwise equal to its own.
    Lookups therefore need no warming first, and several domains may
    score one engine from the start.

    One entry solves points: {!response_into}, one fault's row per
    call, skipping the slots its caller's mask names. {!response} is
    that call over the whole grid, boxed.

    Accounting. When {!Obs.Metrics} is enabled the engine counts its
    work in the global registry: [fastsim.smw_solves] (faulty point
    solves served by the rank-1 update) and [fastsim.full_solves]
    (served by a full assembly or refactorization: fallbacks and
    structural faults), alongside [fastsim.smw_cleared],
    [fastsim.refine_steps], [fastsim.structural_faults],
    [fastsim.wcache_hits] and [fastsim.wcache_misses]. [smw_cleared]
    counts the SMW solves an a-priori bound proved to pass the
    residual gate, so they skipped the residual and built only the
    output entry: dense engines only, and at most [smw_solves]. Every
    rank-1 point solve reads one A⁻¹u column: the first read of each
    (pattern, frequency) column books a miss — whether the read solved
    the column or {!warm_cache} had block-solved it — and every later
    read books a hit. So misses count the distinct columns read, hits
    the reads they served again, and both totals are the same at every
    [jobs] setting and with or without warming. Increments are batched
    in per-domain locals and flushed into the registry once, when each
    {!response_into} call returns, so totals are exact at every call
    boundary without paying one sharded-counter operation per
    solve. *)

type t

type backend = Dense | Sparse | Auto
(** Which factorization serves the fault-free system. [Dense]: the
    planar off-heap LU ({!Linalg.Cmat}) — O(n²) state and O(n³)
    factorization per frequency. [Sparse]: Markowitz-ordered sparse LU
    ({!Linalg.Csparse}) — one symbolic analysis per netlist, a numeric
    refactorization per frequency, state proportional to the stamped
    entries plus fill. [Auto] (the default) picks sparse only when the
    dimension reaches the crossover (n ≥ 64) {e and} the stamped
    density stays below n²/8 — in particular every circuit below the
    crossover keeps the dense path and its exact bitwise behaviour.
    Either way results agree to solver rounding: the Sherman–Morrison
    update, its residual gate and the full-refactorization fallback
    are backend-independent. Every campaign ({!with_engine}, hence
    [Mcdft_core.Adaptive.build], [Mcdft_core.Pipeline.run] and the
    CLI) uses [Auto]; forcing [Dense] or [Sparse] is for references —
    {!create}, [Detect.prepare_view] and [Detect.analyze] take it,
    so the sparse-vs-dense oracle and the tests can pin a solver. *)

val create :
  ?backend:backend ->
  source:string ->
  output:string ->
  freqs_hz:float array ->
  Netlist.t ->
  t
(** Build the engine for one view: index, split stamps, and one
    factorization + nominal solve per frequency. Raises
    {!Mna.Ac.Singular_circuit} if the fault-free system is singular at
    some grid frequency, like {!Mna.Ac.sweep}. *)

type pool
(** Recycled engine storage for {!with_engine}: the workspaces no
    bracket is using, each sized for a dimension and serving every
    engine up to it. A campaign creates one pool and drops it when it
    ends, so the storage lives exactly as long as the campaign. Safe to
    share across domains. *)

val pool : dim:int -> pool
(** An empty pool whose workspaces are sized for systems of dimension
    [dim] — a campaign passes its largest engine's. *)

val with_engine :
  pool:pool ->
  source:string ->
  output:string ->
  freqs_hz:float array ->
  Netlist.t ->
  (t -> 'a) ->
  'a
(** [with_engine ~pool … netlist f] is [f] applied to the engine
    {!create} would build, on storage recycled through [pool]. The
    bracket takes an idle workspace of the pool that holds the engine's
    dimension, or makes one of the pool's dimension (or the engine's,
    if larger): the per-frequency A(jω), LU factor, right-hand side and
    nominal solution buffers, and a column arena that holds the
    engine's A⁻¹u columns. A smaller engine works on the leading part
    of each buffer. The arena grows in chunks as columns are first
    read, so storage follows the columns actually solved. When the
    bracket ends the workspace goes back to the pool, so a campaign
    that streams its views through brackets on [jobs] domains, with
    every engine within the pool's dimension, holds at most [jobs]
    workspaces, each allocated once. Results are bitwise equal to a
    {!create} engine's.

    The engine lives only inside the bracket: once [f] returns or
    raises, any use of it raises [Invalid_argument] (a generation
    check). A bracket nested inside another takes a workspace of its
    own. The engine may be scored from several domains inside the
    bracket, as with {!create}.
    When {!Obs.Metrics} is enabled, [fastsim.workspace_allocs] counts
    the times a workspace's per-frequency buffers are allocated or
    grown: once per workspace for a fixed grid. *)

val uses_sparse : t -> bool
(** Whether the engine factored through the sparse back-end (resolves
    [Auto]); for benches, metrics and tests. *)

val nominal : t -> Complex.t array
(** The fault-free transfer at every grid frequency (equal to
    {!Mna.Ac.sweep} on the same grid). *)

val output_cancels : t -> bool
(** Whether the nominal output is round-off at every grid frequency:
    [|x̂₀[out]| ≤ 1024ε·|y|ᵀ|A||x̂₀|] with [y = A⁻ᵀe_out], the size of
    the error a backward-stable LU can leave in that one entry. A
    response that cancels exactly in exact arithmetic sits within the
    bound; a small but well-determined one (the far end of a long
    ladder) clears it by many decades. The test reads the engine's own
    unit-source system, so the probe's declared amplitude plays no
    part. One transposed solve per frequency tried, largest output
    first; a view with any significant point stops at the first. *)

val warm_cache : t -> Fault.t list -> unit
(** Fill the A⁻¹u column of every rank-1 fault's stamp pattern at
    every grid frequency, with one multi-RHS block back-solve per
    frequency instead of one solve per (pattern, frequency). A
    shortcut for callers that will read every frequency of every
    listed fault (the envelope's drifts); it is never
    needed for correctness or parallel safety, and the columns are
    bitwise equal to the ones a point solve computes on demand.
    Warming books no [wcache_*] counts (see the accounting above).
    Classifying a
    fault never injects it; structural faults and unknown elements are
    skipped (the matching {!response} call still raises). *)

val response : t -> Fault.t -> Complex.t option array
(** The faulty transfer at every grid frequency; [None] where the
    faulty system is singular (the naive path's
    [Singular_circuit]-per-point outcome). Raises
    {!Fault.Unknown_element} when the fault's element is absent from
    the netlist, like {!Fault.inject}. Equivalent to {!plan_of} + a
    {!response_into} that skips no slot. *)

type plan
(** A fault prepared for simulation: classification (unchanged /
    rank-1 / structural) plus any per-fault state (a structural
    fault's split-assembled stamps). Plans are immutable and safe to
    share across domains; all mutable solve state is per-domain. *)

val plan_of : t -> Fault.t -> plan
(** Classify and prepare one fault. Structural faults book their
    [fastsim.structural_faults] increment (and their assembly) here,
    once per plan — so build each (engine, fault) plan once. Raises
    {!Fault.Unknown_element} like {!response}. *)

val response_into :
  t -> plan -> skip:Bytes.t -> re:float array -> im:float array -> ok:Bytes.t -> unit
(** [response_into t plan ~skip ~re ~im ~ok] solves the fault's row:
    at every grid index [i] whose [skip] byte is ['\000'] it writes
    the faulty transfer into slot [i] of the planar row buffers —
    [re]/[im] hold the response, [ok.(i)] is ['\001'] for a valid
    point and ['\000'] where the faulty system is singular
    ({!response}'s [None]). A slot whose [skip] byte is ['\001'] is
    left untouched: it is not solved, reads no column and books no
    counter. Every buffer must hold at least one slot per grid point
    ([Invalid_argument] otherwise). Values are bitwise-identical to
    {!response}'s, without boxing per-point [Complex.t option]s. The
    call's counters are flushed once, when it returns. Safe to call
    from several domains on one engine. *)

val set_chaos : [ `None | `Smw_denominator of float ] -> unit
(** Conformance-testing hook. [`Smw_denominator k] multiplies the
    Sherman–Morrison update denominator by [k] {e and} bypasses the
    residual guard, simulating the silent-wrong-answer bug class the
    differential oracles must catch (see {!Conformance.Oracle}). The
    hook is read first: a chaotic point is never cleared by the
    a-priori bound that spares most dense points the residual (sparse
    engines always compute it), it skips bound and residual alike.
    [`None] — the default — restores correct behaviour. Tests that
    enable it must restore [`None] before returning. *)

val guard_probe :
  a:Linalg.Cmat.t ->
  b:Linalg.Cmat.Vec.t ->
  u:(int * float) list ->
  alpha:Complex.t ->
  out:int ->
  bool * bool * bool
(** Soundness probe of the a-priori residual bound, for tests. The
    dense system [a x = b] read at entry [out], perturbed by
    [alpha·uuᵀ] ([u] a stamp pattern: one or two (index, ±1) pairs on
    distinct indices), is
    solved as one engine point twice: with the bound, and with the
    residual gate alone. Returns [(cleared, passes, same)]: whether
    the bound cleared the point, whether the gate's computed residual
    passed its [1024·ε·scale] test without refinement, and whether the
    two runs wrote the same bits. Soundness is [cleared ⇒ passes]
    (and [same]). Raises {!Linalg.Cmat.Singular} if [a] is. *)
