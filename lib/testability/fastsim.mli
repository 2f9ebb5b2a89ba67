module Netlist := Circuit.Netlist

(** The fault-simulation campaign engine.

    A campaign evaluates one circuit view against many faults on a
    shared frequency grid. The naive cost is a full assembly and an
    O(n³) factorization per (fault, frequency); this engine removes
    both levels of redundancy:

    - the fault-free system is assembled once into a sparse pattern
      ({!Mna.Stamps}), ordered by one Markowitz analysis and
      LU-refactorized once per frequency ({!Linalg.Csparse}), yielding
      the nominal response as a by-product;
    - a single-element deviation (or open/short replacement) of a
      passive R, C or L perturbs the MNA matrix by a rank-1 term
      α(ω)·uuᵀ with u a sparse ±1 pattern, so each faulty solve is
      a Sherman–Morrison update against the cached LU — O(fill),
      polished by one step of iterative refinement. The A⁻¹u
      back-solves are shared by every row of a {!sweep} that reads a
      stamp pattern at a frequency (the ±20 % pair on one component,
      R‖C on one node pair, a drift and the faults on its passive),
      and a frequency's columns are solved together, as one multi-RHS
      block;
    - every update is verified by a residual check — most points are
      cleared a priori by an LU backward-error bound, at O(|u|)
      instead of an O(nnz) mat-vec; an
      ill-conditioned update falls back to a full refactorization of
      the perturbed matrix, and a structural fault (e.g. an inductor
      open, which changes the system dimension) falls back to a fresh
      stamp run of the faulty netlist. Either way the result matches the naive path to
      round-off.

    The engine state is planar and off-heap ({!Linalg.Cmat}: re/im
    planes in Bigarray storage the GC never scans), and the rank-1 hot
    path allocates zero GC-visible words proportional to the system:
    solve buffers live in a per-domain scratch workspace (domain-local
    storage that only grows: a smaller engine works on its leading
    part), so an engine may be shared by several workers. Under
    OCaml 5's stop-the-world minor GC this is what lets campaign
    domains scale: the engine's numeric state contributes nothing to
    any collection.

    Columns are scoped to a frequency. {!create} fixes the engine's
    slots: one per distinct stamp pattern of a passive, so elements on
    one node pair share a slot. A {!sweep} walks the grid in order;
    at each frequency it collects the slots its rank-1 rows read there,
    solves them as the columns of one n×k block
    ({!Linalg.Csparse.solve_block_into}, bitwise equal to k single
    solves), and runs every row's point from that block. The block
    lives in per-domain scratch that only grows, so a column lives
    only while its frequency is processed and an engine holds no
    column at all. Several domains may sweep one engine at once: its
    only lazily set state, ‖A(jω)‖∞ and the a-priori bound's
    per-frequency data, is published atomically, and racing domains
    compute the same bits.

    One entry solves points: {!sweep}, any number of rows per call,
    each skipping the grid indices its mask names. {!response} is a
    one-row sweep over the whole grid, boxed.

    Accounting. When {!Obs.Metrics} is enabled the engine counts its
    work in the global registry: [fastsim.smw_solves] (faulty point
    solves served by the rank-1 update) and [fastsim.full_solves]
    (served by a full assembly or refactorization: fallbacks and
    structural faults), alongside [fastsim.smw_cleared],
    [fastsim.refine_steps], [fastsim.structural_faults],
    [fastsim.wcache_hits] and [fastsim.wcache_misses]. [smw_cleared]
    counts the SMW solves an a-priori bound proved to pass the
    residual gate, so they skipped the residual and built only the
    output entry, at most [smw_solves]. [fastsim.reanalyses] counts the
    frequencies whose refactorization failed under the shared pivot
    order and were analyzed afresh ({!create}). Every
    rank-1 point solve with a nonzero α(ω) reads one A⁻¹u column. Per
    {!sweep} call, [wcache_misses] counts the distinct (pattern,
    frequency) columns read — the block's columns — and
    [wcache_hits] the other reads, so the totals depend only on the
    rows swept together, never on the schedule. Increments are
    batched in per-domain locals and flushed into the registry once,
    when each {!sweep} call returns, so totals are exact at every
    call boundary without paying one sharded-counter operation per
    solve. *)

type t

val create :
  source:string ->
  output:string ->
  freqs_hz:float array ->
  Netlist.t ->
  t
(** Build the engine for one view: index and sparse stamps
    ({!Mna.Stamps.build_sparse} under [Only source]), one symbolic
    Markowitz analysis ({!Linalg.Csparse.analyze}) on the values at the
    grid's middle frequency, then per frequency a numeric
    refactorization under its pivots and the nominal solve. A
    frequency whose refactorization meets a pivot below the
    singularity threshold gets an analysis of its own values, booked
    as [fastsim.reanalyses] when {!Obs.Metrics} is enabled. Raises
    {!Mna.Ac.Singular_circuit} if that analysis fails too: the
    fault-free system is singular at some grid frequency, like
    {!Mna.Ac.sweep}. *)

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
  Mna.Stamps.sparse ->
  (t -> 'a) ->
  'a
(** [with_engine ~pool … netlist stamps f] is [f] applied to the engine
    {!create} would build, on storage recycled through [pool]. [stamps]
    is [netlist]'s index and stamp run under the probe's source,
    [Mna.Stamps.build_sparse ~sources:(Only source) netlist], as
    {!create} builds it; the engine builds neither again, so a caller
    that already holds them (a campaign's structure pass) pays for one
    run per view. The
    bracket takes an idle workspace of the pool that holds the engine's
    dimension, or makes one of the pool's dimension (or the engine's,
    if larger): the per-frequency right-hand side and nominal solution
    vectors, and one plane per frequency for A(jω)'s values and sparse
    factors. A smaller engine works on the leading part of each
    buffer; a plane too short for an engine's pattern and fill grows,
    by half again at least, and stays grown. When the
    bracket ends the workspace goes back to the pool, so a campaign
    that streams its views through brackets on [jobs] domains, with
    every engine within the pool's dimension, holds at most [jobs]
    workspaces, each allocated once. Results are bitwise equal to a
    {!create} engine's.

    The engine lives only inside the bracket: once [f] returns or
    raises, any use of it raises [Invalid_argument] (a generation
    check). A bracket nested inside another takes a workspace of its
    own. The engine may be swept from several domains inside the
    bracket, as with {!create}.
    When {!Obs.Metrics} is enabled, [fastsim.workspace_allocs] counts
    the times a workspace's per-frequency vectors are allocated or
    grown: once per workspace for a fixed grid. Plane growth is not
    counted: it depends on which engines a workspace served before,
    hence on the schedule. *)

val drift_sweeper :
  source:string ->
  output:string ->
  freqs_hz:float array ->
  Netlist.t ->
  Complex.t array * (Netlist.t -> Complex.t array)
(** [drift_sweeper … netlist] is [netlist]'s {!nominal} and a function
    giving the nominal of a copy of [netlist] with other element values
    (a Monte-Carlo sample). Each copy's engine lives in a
    {!with_engine} bracket on one pool for the whole sweeper and,
    when its sparse pattern is [netlist]'s, refactors under the
    symbolic analysis of [netlist]'s engine instead of analyzing its
    own values; a frequency whose refactorization fails is analyzed
    afresh, as in {!create}. Campaign engines never share an analysis.
    The function may be called from several domains at once. Raises
    {!Mna.Ac.Singular_circuit} like {!create}. *)

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

val response : t -> Fault.t -> Complex.t option array
(** The faulty transfer at every grid frequency; [None] where the
    faulty system is singular (the naive path's
    [Singular_circuit]-per-point outcome). Raises
    {!Fault.Unknown_element} when the fault's element is absent from
    the netlist, like {!Fault.inject}. Equivalent to {!plan_of} + a
    one-row {!sweep} that skips no grid index. *)

type plan
(** A fault prepared for simulation: classification (unchanged /
    rank-1 / structural) plus any per-fault state (a structural
    fault's stamp run). Plans are immutable and safe to
    share across domains; all mutable solve state is per-domain. *)

val plan_of : t -> Fault.t -> plan
(** Classify and prepare one fault. Structural faults book their
    [fastsim.structural_faults] increment (and their assembly) here,
    once per plan — so build each (engine, fault) plan once. Raises
    {!Fault.Unknown_element} like {!response}. *)

val sweep :
  t ->
  plan array ->
  skip:Bytes.t array ->
  re:float array array ->
  im:float array array ->
  ok:Bytes.t array ->
  unit
(** [sweep t plans ~skip ~re ~im ~ok] solves row [r], the fault of
    [plans.(r)], at every grid index [i] whose byte [skip.(r).[i]] is
    ['\000']: it writes the faulty transfer into slot [i] of the
    row's planar buffers — [re.(r)]/[im.(r)] hold the response,
    [ok.(r).[i]] is ['\001'] for a valid point and ['\000'] where
    the faulty system is singular ({!response}'s [None]). A slot whose
    [skip] byte is ['\001'] is left untouched: it is not solved, reads
    no column and books no counter. Rows may share a mask. Every
    buffer must hold at least one slot per grid point, with one mask
    and one set of buffers per plan ([Invalid_argument] otherwise).

    Frequencies are processed in order, and each one's A⁻¹u columns
    come from one block back-solve over the distinct patterns its
    rank-1 rows read, into per-domain storage that is sized before the
    first frequency and only grows. Values are bitwise equal to one
    {!response} per row, whatever rows share the sweep. The call's
    counters are flushed once, when it returns. Safe to call from
    several domains on one engine. *)

val set_chaos : [ `None | `Smw_denominator of float ] -> unit
(** Conformance-testing hook. [`Smw_denominator k] multiplies the
    Sherman–Morrison update denominator by [k] {e and} bypasses the
    residual guard, simulating the silent-wrong-answer bug class the
    differential oracles must catch (see {!Conformance.Oracle}). The
    hook is read first: a chaotic point is never cleared by the
    a-priori bound that spares most points the residual; it skips
    bound and residual alike.
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
    system [a x = b] read at entry [out], perturbed by [alpha·uuᵀ] ([u]
    a stamp pattern: one or two (index, ±1) pairs on distinct
    indices), is solved as one engine point twice: with the bound, and
    with the residual gate alone. [a] is factored as an engine factors:
    a {!Linalg.Csparse} pattern of its nonzero entries,
    {!Linalg.Csparse.analyze} on its values, then
    {!Linalg.Csparse.refactor}.
    Returns [(cleared, passes, same)]: whether the bound cleared the
    point, whether the gate's computed residual passed its
    [1024·ε·scale] test without refinement, and whether the two runs
    wrote the same bits. Soundness is [cleared ⇒ passes] (and
    [same]). Raises {!Linalg.Cmat.Singular} if [a] is singular to
    that factorization. *)
