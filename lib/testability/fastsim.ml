module Netlist = Circuit.Netlist
module Element = Circuit.Element
module Cmat = Linalg.Cmat
module Bvec = Cmat.Vec
module Csparse = Linalg.Csparse

(* A sparse ±1 stamp pattern: the nonzero rows of the rank-1 factor u
   and their signs, in stamp order. The kernels loop over it with
   unboxed accumulators. *)
type pat = { rows : int array; signs : float array }

let pat_of_list l =
  { rows = Array.of_list (List.map fst l); signs = Array.of_list (List.map snd l) }

(* [Complex.norm] on raw components, the operations of {!Cmat}'s
   [norm2] written here. Under [-opaque] (dune's default profile) no
   call into another module inlines, whatever its [@inline] attribute,
   and an out-of-line call boxes both floats and the result. So a
   float helper a hot loop calls lives in the module that loops, as
   this one does; tools/check_unboxed.py fails where a hot kernel
   calls through another module's closure. *)
let[@inline always] norm2 re im =
  let r = Float.abs re and i = Float.abs im in
  if r = 0.0 then i
  else if i = 0.0 then r
  else if r >= i then
    let q = i /. r in
    r *. sqrt (1.0 +. (q *. q))
  else
    let q = r /. i in
    i *. sqrt (1.0 +. (q *. q))

(* ΔA(ω) = (alpha_g + jω alpha_c) · u uᵀ — every rank-1 stamp here is
   symmetric (an admittance across a node pair, or an inductor's own
   branch diagonal). [slot] names the pattern: rows on one slot read
   one A⁻¹u column at each frequency. *)
type rank1 = { slot : int; u : pat; alpha_g : float; alpha_c : float }

(* Fault classification, before any per-plan state is built. *)
type cls =
  | Unchanged  (* the fault does not alter the system (e.g. grounded element) *)
  | Rank_one of rank1
  | Structural  (* full path on the injected netlist *)

(* ---- recycled engine storage ----

   An engine built inside {!with_engine} takes its per-frequency
   storage from a workspace of its pool. The right-hand side and
   nominal-solution vectors are sized for the largest dimension the
   pool serves, and a smaller engine uses their first n entries (every
   kernel reads and writes a vector's first n). A(jω)'s values and its
   sparse factors lie in one plane per frequency that only grows: an
   engine places them at offsets from its start, as many elements as
   its pattern and fill need. Leaving the bracket bumps the
   workspace's generation — every engine built on it is dead from then
   on — and hands the workspace back to the pool, so the next engine,
   of whatever dimension up to the workspace's, reuses all of it. *)

type workspace = {
  ws_n : int;  (* the largest dimension it serves *)
  pooled : bool;  (* a pool's, which counts its allocations and grows its planes with headroom *)
  mutable ws_b : Bvec.t array;
  mutable ws_x0 : Bvec.t array;
  mutable ws_planes : Csparse.plane array;  (* per frequency: A(jω)'s values, then its factors *)
  gen : int Atomic.t;  (* bumped when a bracket ends *)
}

(* The workspaces no bracket is using, and the dimension a new one is
   sized for. *)
type pool = { pool_lock : Mutex.t; mutable idle : workspace list; pool_dim : int }

let pool ~dim = { pool_lock = Mutex.create (); idle = []; pool_dim = dim }

let workspace_create ~pooled n =
  { ws_n = n; pooled; ws_b = [||]; ws_x0 = [||]; ws_planes = [||]; gen = Atomic.make 0 }

(* The smallest idle workspace of [pool] that holds dimension [n], or
   a new one sized for the pool's dimension (or [n], if larger). *)
let acquire_workspace pool n =
  Mutex.protect pool.pool_lock (fun () ->
      let fits =
        List.fold_left
          (fun best ws ->
            match best with
            | Some b when b.ws_n <= ws.ws_n -> best
            | _ when ws.ws_n >= n -> Some ws
            | _ -> best)
          None pool.idle
      in
      match fits with
      | Some ws ->
          pool.idle <- List.filter (fun w -> w != ws) pool.idle;
          ws
      | None -> workspace_create ~pooled:true (Int.max n pool.pool_dim))

(* Size the per-frequency vectors for [nf] frequencies, keeping every
   buffer already there; whether anything was allocated. *)
let ensure_vectors ws ~nf =
  let n = ws.ws_n in
  let grow arr make =
    let have = Array.length arr in
    if have >= nf then arr
    else Array.init nf (fun i -> if i < have then arr.(i) else make ())
  in
  let short = Array.length ws.ws_b < nf in
  if short then begin
    ws.ws_b <- grow ws.ws_b (fun () -> Bvec.create n);
    ws.ws_x0 <- grow ws.ws_x0 (fun () -> Bvec.create n);
    ws.ws_planes <- grow ws.ws_planes (fun () -> Csparse.plane 0)
  end;
  short

(* Frequency [i]'s plane with at least [len] elements: the one it has
   if it is long enough. A pooled workspace grows by half again at
   least, so engines whose fill creeps up one after another do not
   reallocate each time. *)
let plane_for ws i len =
  let p = ws.ws_planes.(i) in
  let cap = Bigarray.Array1.dim p in
  if cap >= len then p
  else begin
    let p = Csparse.plane (if ws.pooled then Int.max len (cap + (cap / 2)) else len) in
    ws.ws_planes.(i) <- p;
    p
  end

let release pool ws =
  Atomic.incr ws.gen;
  Mutex.protect pool.pool_lock (fun () -> pool.idle <- ws :: pool.idle)

(* What the a-priori residual bound reads of one frequency (see
   {!bound_clears}); magnitudes use |z|₁ = |re| + |im|. *)
type bound_data = {
  r0 : float;  (* upper bound on ‖b − A x̂₀‖ *)
  a1 : float;  (* ‖A‖ *)
  b1 : float;  (* ‖b‖ *)
  lu1 : float;  (* ‖|L̂||Û|‖ *)
  x01 : float;  (* ‖x̂₀‖ *)
  jmax : int;  (* where |x̂₀ᵢ|₁ peaks *)
  g_lu : float;  (* γ₃ₙ₊₄₀: the LU backward error's constant *)
  g_mv : float;  (* γₙ₊₈: the residual mat-vec's rounding constant *)
}

(* The engine. Frequency [i]'s factored fault-free system is [vals.(i)]
   — A(jω)'s value plane in the slot order of [spat], its sparse
   factors [num.(i)] behind the values — with the right-hand side
   [b.(i)] and the nominal solution [x0.(i)] in their first [n]
   entries: O(nnz + fill) per frequency, all of it the workspace's
   storage at offsets. The dense fallbacks densify on demand. The
   per-frequency arrays may be longer than the grid ([nf]). *)
type t = {
  netlist : Netlist.t;
  source : string;
  output : string;
  out_idx : int option;
  n : int;
  nf : int;
  spat : Csparse.pattern;
  omega : float array;
  vals : Csparse.plane array;
  num : Csparse.numeric array;
  b : Bvec.t array;
  bnorm : float array;  (* ‖b(jω)‖∞ *)
  x0 : Bvec.t array;
  anorm : float Atomic.t array;  (* ‖A(jω)‖∞, nan until {!bound_of} or a point first reads it *)
  bound : bound_data option Atomic.t array;  (* built at the first rank-1 point *)
  nominal : Complex.t array;
  slot_of : (string, int) Hashtbl.t;  (* passive -> its stamp pattern's slot *)
  slot_pats : pat array;
  analysis : (Csparse.pattern * Csparse.symbolic) option;  (* the one the refactors share *)
  lease : (workspace * int) option;  (* bracket storage and its generation *)
}

(* Calls into {!Csparse}, out of line. Under [-opaque] a call into
   another module goes through [caml_applyN]; these pass no float in,
   so nothing is boxed, and keeping them out of the hot functions keeps
   those free of such calls (tools/check_unboxed.py checks it). *)
let[@inline never] a_mul_vec t i ~x ~y = Csparse.mul_vec_into t.spat t.vals.(i) ~x ~y
let[@inline never] a_norms t i = Csparse.norms_inf t.spat t.vals.(i)
let[@inline never] a_solve t i ~b ~x = Csparse.solve_into t.num.(i) ~b ~x

(* ‖A(jω)‖∞, taken at the first point that reads it, so an engine that
   only reports its nominal (Monte-Carlo's sweeps) never pays the pass
   over A. {!bound_of} publishes it from its own pass over A; this pass
   serves the points that never build the bound (the chaos hook,
   {!guard_probe}'s reference run). A(jω) is never written after the
   build, so domains racing to fill it store the same value. *)
let[@inline never] anorm_fill t i = Atomic.set t.anorm.(i) (snd (a_norms t i))

let[@inline always] anorm t i =
  if Float.is_nan (Atomic.get t.anorm.(i)) then anorm_fill t i;
  Atomic.get t.anorm.(i)

let check_live t =
  match t.lease with
  | Some (ws, gen) when Atomic.get ws.gen <> gen ->
      invalid_arg "Fastsim: engine used after its with_engine bracket ended"
  | _ -> ()

(* A fault ready to simulate. Plans are immutable and safe to share
   across domains; all mutable solve state lives in per-domain
   scratch. *)
type plan =
  | P_unchanged
  | P_rank1 of rank1
  | P_structural of { s_stamps : Mna.Stamps.sparse; s_n : int; s_out : int option }

(* Counter increments batched per domain: the solver hot loop bumps
   plain mutable ints and {!flush_pending} folds them into the
   {!Obs.Metrics} registry once per {!sweep} call, instead of
   one sharded-counter operation per solve (which was ~17% of a
   metrics-enabled campaign). *)
type pending = {
  mutable p_smw : int;
  mutable p_cleared : int;  (* of [p_smw]: cleared by the a-priori bound *)
  mutable p_full : int;
  mutable p_refine : int;
  mutable p_hits : int;
  mutable p_misses : int;
}

(* One frequency's A⁻¹u columns: the distinct slots its rank-1 rows
   read, solved as one n×k block. [rhs] is all zero between
   frequencies, [cols_re]/[cols_im] hold the solutions column by column
   so that a point reads its column contiguously, and every plane only
   grows. The blocks' planes are kept beside them, so the kernels that
   read them call nothing in {!Cmat}. *)
type block = {
  mutable cap : int;  (* elements per plane of each of the four blocks *)
  mutable rhs : Cmat.t;
  mutable sol : Cmat.t;
  mutable work : Cmat.t;  (* a sparse solve's permuted block *)
  mutable rhs_re : Cmat.plane;  (* [rhs]'s real plane *)
  mutable sol_re : Cmat.plane;  (* [sol]'s planes *)
  mutable sol_im : Cmat.plane;
  mutable cols_re : Cmat.plane;  (* column c at offset c·n *)
  mutable cols_im : Cmat.plane;
  mutable col_of : int array;  (* slot -> its column at this frequency, −1 if none *)
  mutable slot_at : int array;  (* column -> slot *)
  mutable wnorm : float array;  (* column -> ‖ŵ‖ (|z|₁ = |re| + |im|), for the a-priori bound *)
}

(* Per-domain off-heap workspaces for the rank-1 hot path: one scratch
   record per domain (via DLS). Workers therefore share nothing but the
   scheduler state and the read-only engine/plan state. [xf], [resid]
   and [d0] only grow: a solve uses their first n entries. The [s*]
   fields are the fallback workspace (full refactorization and
   structural assembly, whose value plane [svals] only grows), sized
   independently because a structural netlist can change the system
   dimension; the dense kernels want exact dimensions, so those are
   prefix views of the [*_store] buffers at the dimension last asked
   for. *)
type scratch = {
  mutable xf : Bvec.t;  (* candidate faulty solution *)
  mutable resid : Bvec.t;  (* faulty residual b_f − A_f xf *)
  mutable d0 : Bvec.t;  (* refinement back-solve *)
  mutable sdim : int;
  mutable sm : Cmat.t;  (* fallback assembly / perturbed-copy target *)
  mutable slu : Cmat.lu;
  mutable sb : Bvec.t;
  mutable sx : Bvec.t;
  mutable svals : Csparse.plane;  (* a structural plan's A(jω), slot order *)
  mutable sm_store : Cmat.t;
  mutable slu_store : Cmat.lu;
  mutable sb_store : Bvec.t;
  mutable sx_store : Bvec.t;
  blk : block;
  pend : pending;
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      {
        xf = Bvec.create 0;
        resid = Bvec.create 0;
        d0 = Bvec.create 0;
        sdim = -1;
        sm = Cmat.create 0 0;
        slu = Cmat.lu_create 0;
        sb = Bvec.create 0;
        sx = Bvec.create 0;
        svals = Csparse.plane 0;
        sm_store = Cmat.create 0 0;
        slu_store = Cmat.lu_create 0;
        sb_store = Bvec.create 0;
        sx_store = Bvec.create 0;
        blk =
          {
            cap = 0;
            rhs = Cmat.create 0 0;
            sol = Cmat.create 0 0;
            work = Cmat.create 0 0;
            rhs_re = Csparse.plane 0;
            sol_re = Csparse.plane 0;
            sol_im = Csparse.plane 0;
            cols_re = Csparse.plane 0;
            cols_im = Csparse.plane 0;
            col_of = [||];
            slot_at = [||];
            wnorm = [||];
          };
        pend =
          {
            p_smw = 0;
            p_cleared = 0;
            p_full = 0;
            p_refine = 0;
            p_hits = 0;
            p_misses = 0;
          };
      })

let flush_pending (p : pending) =
  if p.p_smw > 0 then Obs.Metrics.incr "fastsim.smw_solves" ~by:p.p_smw;
  if p.p_cleared > 0 then Obs.Metrics.incr "fastsim.smw_cleared" ~by:p.p_cleared;
  if p.p_full > 0 then Obs.Metrics.incr "fastsim.full_solves" ~by:p.p_full;
  if p.p_refine > 0 then Obs.Metrics.incr "fastsim.refine_steps" ~by:p.p_refine;
  if p.p_hits > 0 then Obs.Metrics.incr "fastsim.wcache_hits" ~by:p.p_hits;
  if p.p_misses > 0 then Obs.Metrics.incr "fastsim.wcache_misses" ~by:p.p_misses;
  p.p_smw <- 0;
  p.p_cleared <- 0;
  p.p_full <- 0;
  p.p_refine <- 0;
  p.p_hits <- 0;
  p.p_misses <- 0

(* This domain's pending counts. *)
let pending () = (Domain.DLS.get scratch_key).pend

let scratch_for n =
  let s = Domain.DLS.get scratch_key in
  if Bvec.length s.xf < n then begin
    s.xf <- Bvec.create n;
    s.resid <- Bvec.create n;
    s.d0 <- Bvec.create n
  end;
  s

let fallback_ws s n =
  if s.sdim <> n then begin
    if Bvec.length s.sb_store < n then begin
      s.sm_store <- Cmat.create n n;
      s.slu_store <- Cmat.lu_create n;
      s.sb_store <- Bvec.create n;
      s.sx_store <- Bvec.create n
    end;
    s.sdim <- n;
    s.sm <- Cmat.prefix s.sm_store n;
    s.slu <- Cmat.lu_prefix s.slu_store n;
    s.sb <- Bvec.prefix s.sb_store n;
    s.sx <- Bvec.prefix s.sx_store n
  end;
  s

let two_node_pat index n1 n2 =
  match (Mna.Index.node index n1, Mna.Index.node index n2) with
  | Some i, Some j when i = j -> []
  | Some i, Some j -> [ (i, 1.0); (j, -1.0) ]
  | Some i, None -> [ (i, 1.0) ]
  | None, Some j -> [ (j, -1.0) ]
  | None, None -> []

(* The engine's slots, fixed when it is built: one per distinct
   non-empty stamp pattern of a passive, so elements on one node pair
   (R‖C) share an A⁻¹u column. A passive with an empty pattern
   (both ends on one node) has no slot: none of its faults can move
   the system. *)
let intern_slots index netlist =
  let slot_of = Hashtbl.create 64 and by_pat = Hashtbl.create 64 in
  let pats = ref [] and k = ref 0 in
  List.iter
    (fun e ->
      let pat =
        match e with
        | Element.Resistor { n1; n2; _ } | Element.Capacitor { n1; n2; _ } ->
            two_node_pat index n1 n2
        | Element.Inductor { name; _ } -> [ (Mna.Index.branch index name, 1.0) ]
        | _ -> []
      in
      if pat <> [] then begin
        let slot =
          match Hashtbl.find_opt by_pat pat with
          | Some slot -> slot
          | None ->
              let slot = !k in
              incr k;
              Hashtbl.add by_pat pat slot;
              pats := pat_of_list pat :: !pats;
              slot
        in
        Hashtbl.replace slot_of (Element.name e) slot
      end)
    (Netlist.elements netlist);
  (slot_of, Array.of_list (List.rev !pats))

let singular_at netlist f_hz =
  raise
    (Mna.Ac.Singular_circuit
       (Printf.sprintf "MNA matrix singular at f = %g Hz for %S" f_hz (Netlist.title netlist)))

(* [Csparse.refactor] under the ["mna.factor_s"] histogram, with no
   closure to build when metrics are off. *)
let refactor_timed num vals =
  if not (Obs.Metrics.enabled ()) then Csparse.refactor num vals
  else begin
    let t0 = Obs.Metrics.now () in
    let book () = Obs.Metrics.observe "mna.factor_s" (Obs.Metrics.now () -. t0) in
    match Csparse.refactor num vals with
    | () -> book ()
    | exception e ->
        book ();
        raise e
  end

(* The engine of [netlist], from its index and stamp run [sp] under
   [Only source], on the workspace [acquire n] returns for
   its dimension [n], with the lease a bracket checks. One symbolic
   Markowitz analysis serves every frequency: [analysis] if it is given
   for this pattern (a Monte-Carlo sample refactors on its nominal's),
   else one on the values at the grid's middle frequency — the pattern
   is fixed and entry magnitudes vary smoothly in ω, so one pivot order
   serves the whole sweep, and per-frequency work is a numeric
   refactorization in that fixed pattern. Where a refactorization under those static
   pivots meets a pivot below the singularity threshold (or the
   analysis itself found none), the frequency's own values get an
   analysis of their own, booked as [fastsim.reanalyses]: the system
   is singular only if that one fails too, as a partial-pivoted dense
   LU would decide from the same values. Each frequency's values go
   into the front of its plane and its factors behind them; nothing
   per frequency is a view or a closure. *)
let build ~acquire ?analysis ~source ~output ~freqs_hz netlist sp =
  Obs.Trace.span "fastsim.create" @@ fun () ->
  let index = Mna.Stamps.sparse_index sp in
  let n = Mna.Index.size index in
  let ws, lease = acquire n in
  let nf = Array.length freqs_hz in
  let out_idx = Mna.Index.node index output in
  let slot_of, slot_pats = intern_slots index netlist in
  let spat = Mna.Stamps.sparse_pattern sp and nnz = Mna.Stamps.sparse_nnz sp in
  if ensure_vectors ws ~nf && ws.pooled then Obs.Metrics.incr "fastsim.workspace_allocs";
  let omega = Array.map (fun f_hz -> 2.0 *. Float.pi *. f_hz) freqs_hz in
  (* Frequency [i]'s values, at the front of its plane. *)
  let values i len =
    let vals = plane_for ws i (Int.max len (2 * nnz)) in
    Mna.Stamps.fill_sparse sp ~omega:omega.(i) vals;
    vals
  in
  let analyze i =
    let vals = values i 0 in
    Obs.Metrics.time "mna.analyze_s" (fun () -> Csparse.analyze spat vals)
  in
  let analysis =
    match analysis with
    | Some (p, sym) when p = spat -> Some (p, sym)
    | _ when nf = 0 -> None
    | _ -> (
        match analyze (nf / 2) with
        | exception Cmat.Singular -> None
        | sym -> Some (spat, sym))
  in
  (* Frequency [i] factored under [sym] behind its values. Raises
     [Cmat.Singular] from the refactorization. *)
  let factor i sym =
    let vals = values i ((2 * nnz) + Csparse.factor_len sym) in
    let num = Csparse.numeric sym vals ~off:(2 * nnz) in
    refactor_timed num vals;
    num
  in
  let reanalyzed i =
    Obs.Metrics.incr "fastsim.reanalyses";
    match factor i (analyze i) with
    | exception Cmat.Singular -> singular_at netlist freqs_hz.(i)
    | num -> num
  in
  let num =
    Array.init nf (fun i ->
        let num =
          match analysis with
          | None -> reanalyzed i
          | Some (_, sym) -> (
              match factor i sym with exception Cmat.Singular -> reanalyzed i | num -> num)
        in
        let b = ws.ws_b.(i) and x0 = ws.ws_x0.(i) in
        Mna.Stamps.sparse_rhs_into sp ~omega:omega.(i) b;
        Csparse.solve_into num ~b ~x:x0;
        num)
  in
  let bnorm =
    Array.init nf (fun i ->
        let b = ws.ws_b.(i) in
        let acc = ref 0.0 in
        for k = 0 to n - 1 do
          let m =
            norm2 (Bigarray.Array1.unsafe_get b.Bvec.re k) (Bigarray.Array1.unsafe_get b.Bvec.im k)
          in
          if m > !acc then acc := m
        done;
        !acc)
  in
  let nominal =
    Array.init nf (fun i ->
        match out_idx with None -> Complex.zero | Some oi -> Bvec.get ws.ws_x0.(i) oi)
  in
  {
    netlist;
    source;
    output;
    out_idx;
    n;
    nf;
    spat;
    omega;
    vals = ws.ws_planes;
    num;
    b = ws.ws_b;
    bnorm;
    x0 = ws.ws_x0;
    anorm = Array.init nf (fun _ -> Atomic.make Float.nan);
    bound = Array.init nf (fun _ -> Atomic.make None);
    nominal;
    slot_of;
    slot_pats;
    analysis;
    lease;
  }

(* An engine's index and stamp run, as a campaign's structure pass
   builds them before it hands them to {!with_engine}. *)
let stamp_run ~source netlist =
  Mna.Stamps.build_sparse ~sources:(Mna.Assemble.Only source) netlist

let create ~source ~output ~freqs_hz netlist =
  build
    ~acquire:(fun n -> (workspace_create ~pooled:false n, None))
    ~source ~output ~freqs_hz netlist (stamp_run ~source netlist)

let bracket ~pool ?analysis ~source ~output ~freqs_hz netlist stamps f =
  let leased = ref None in
  let acquire n =
    let ws = acquire_workspace pool n in
    leased := Some ws;
    (ws, Some (ws, Atomic.get ws.gen))
  in
  Fun.protect
    ~finally:(fun () -> Option.iter (release pool) !leased)
    (fun () -> f (build ~acquire ?analysis ~source ~output ~freqs_hz netlist stamps))

let with_engine ~pool ~source ~output ~freqs_hz netlist stamps f =
  bracket ~pool ~source ~output ~freqs_hz netlist stamps f

let nominal t =
  check_live t;
  t.nominal

(* One pool and one analysis for a netlist and its copies: the nominal
   engine's analysis serves every copy of the same pattern, which only
   refactors. *)
let drift_sweeper ~source ~output ~freqs_hz netlist =
  let stamps = stamp_run ~source netlist in
  let pool = pool ~dim:(Mna.Index.size (Mna.Stamps.sparse_index stamps)) in
  let first, analysis =
    bracket ~pool ~source ~output ~freqs_hz netlist stamps (fun t -> (nominal t, t.analysis))
  in
  ( first,
    fun copy ->
      bracket ~pool ?analysis ~source ~output ~freqs_hz copy (stamp_run ~source copy) nominal )

(* The round-off a backward-stable LU leaves in the output: with
   y = A⁻ᵀe_out, the computed x̂₀ solves (A + ΔA)x̂₀ = b with
   |ΔA| ≲ γ₃ₙ|A| (Higham, Thm 9.4, growth aside), so
   |x̂₀[out] − x₀[out]| ≲ 3nε·|y|ᵀ|A||x̂₀|. An output no larger than
   1024ε·|y|ᵀ|A||x̂₀| has no significant digit: the sum that forms it
   cancels. A small output the system fixes accurately (the far end of
   a long ladder) stays far above the bound, whatever its size; one
   that cancels sits within it, whatever the source's declared value.
   Points are tried from the largest |x̂₀[out]| down, so a live view
   costs one transposed solve. *)
let cancellation_margin = 1024.0

let output_cancels t =
  check_live t;
  match t.out_idx with
  | None -> true
  | Some oi ->
      let e = Bvec.create t.n and y = Bvec.create t.n in
      Bvec.set e oi Complex.one;
      let order = Array.init t.nf Fun.id in
      (* |x̂₀[out]|, {!Complex.norm}'s value *)
      let mags =
        Array.map (fun (z : Complex.t) -> norm2 z.Complex.re z.Complex.im) t.nominal
      in
      let mag i = mags.(i) in
      Array.stable_sort (fun i j -> Float.compare (mag j) (mag i)) order;
      Array.for_all
        (fun i ->
          Csparse.solve_transpose_into t.num.(i) ~b:e ~x:y;
          let form = Csparse.abs_bilinear t.spat t.vals.(i) ~y ~x:t.x0.(i) in
          mag i <= cancellation_margin *. epsilon_float *. form)
        order

(* ---- fault classification ---- *)

(* The admittance-style elements stamp y·uuᵀ with u the two-node
   pattern, so a value change is the rank-1 perturbation Δy·uuᵀ; an
   inductor's deviation only moves its own branch-equation diagonal
   entry, −sΔL. Anything else (dimension-changing replacements, source
   deviations, non-finite deltas) takes the structural path. The
   pattern comes from the slot table, so classifying never injects. *)
let classify t (fault : Fault.t) =
  match Netlist.find t.netlist fault.Fault.element with
  | None -> raise (Fault.Unknown_element fault.Fault.element)
  | Some e -> (
      let rank1 ~alpha_g ~alpha_c =
        if not (Float.is_finite alpha_g && Float.is_finite alpha_c) then Structural
        else
          match Hashtbl.find_opt t.slot_of fault.Fault.element with
          | Some slot when alpha_g <> 0.0 || alpha_c <> 0.0 ->
              Rank_one { slot; u = t.slot_pats.(slot); alpha_g; alpha_c }
          | _ -> Unchanged
      in
      let replacement () =
        match fault.Fault.kind with
        | Fault.Open_circuit -> Fault.open_resistance
        | _ -> Fault.short_resistance
      in
      match (fault.Fault.kind, e) with
      | Fault.Deviation f, Element.Resistor { value; _ } ->
          rank1 ~alpha_g:((1.0 /. (f *. value)) -. (1.0 /. value)) ~alpha_c:0.0
      | Fault.Deviation f, Element.Capacitor { value; _ } ->
          rank1 ~alpha_g:0.0 ~alpha_c:((f -. 1.0) *. value)
      | Fault.Deviation f, Element.Inductor { value; _ } ->
          rank1 ~alpha_g:0.0 ~alpha_c:(-.((f -. 1.0) *. value))
      | (Fault.Open_circuit | Fault.Short_circuit), Element.Resistor { value; _ } ->
          rank1 ~alpha_g:((1.0 /. replacement ()) -. (1.0 /. value)) ~alpha_c:0.0
      | (Fault.Open_circuit | Fault.Short_circuit), Element.Capacitor { value; _ } ->
          (* the capacitor is replaced by a resistance: add 1/r, retire sC *)
          rank1 ~alpha_g:(1.0 /. replacement ()) ~alpha_c:(-.value)
      | _ -> Structural)

let plan_of t fault =
  check_live t;
  match classify t fault with
  | Unchanged -> P_unchanged
  | Rank_one r1 -> P_rank1 r1
  | Structural ->
      (* Once per (engine, fault) plan — the same accounting point the
         per-call structural path used before plans existed. *)
      Obs.Metrics.incr "fastsim.structural_faults";
      Obs.Trace.span "fastsim.structural" @@ fun () ->
      let faulty = Fault.inject fault t.netlist in
      let stamps = Mna.Stamps.build_sparse ~sources:(Mna.Assemble.Only t.source) faulty in
      let index = Mna.Stamps.sparse_index stamps in
      P_structural
        {
          s_stamps = stamps;
          s_n = Mna.Index.size index;
          s_out = Mna.Index.node index t.output;
        }

(* ---- rank-1 solves ---- *)

(* Pattern dot product against one plane, read from offset [off]:
   Σ s·plane.(off + i) in the pattern's order, on an unboxed
   accumulator. The complex dot against a planar vector is two of
   these, one per plane. *)
let[@inline always] dot_pat (u : pat) (plane : Cmat.plane) off =
  let acc = ref 0.0 in
  for e = 0 to Array.length u.rows - 1 do
    acc :=
      !acc
      +. Array.unsafe_get u.signs e
         *. Bigarray.Array1.unsafe_get plane (off + Array.unsafe_get u.rows e)
  done;
  !acc

(* (nr + i·ni) / (dr + i·di) — Smith's algorithm, exactly Complex.div,
   one part at a time: each part repeats the shared operations, so
   neither builds a pair. *)
let[@inline always] div_re nr ni dr di =
  if Float.abs dr >= Float.abs di then
    let r = di /. dr in
    let d = dr +. (r *. di) in
    (nr +. (r *. ni)) /. d
  else
    let r = dr /. di in
    let d = di +. (r *. dr) in
    ((r *. nr) +. ni) /. d

let[@inline always] div_im nr ni dr di =
  if Float.abs dr >= Float.abs di then
    let r = di /. dr in
    let d = dr +. (r *. di) in
    (ni -. (r *. nr)) /. d
  else
    let r = dr /. di in
    let d = di +. (r *. dr) in
    ((r *. ni) -. nr) /. d

(* max over the first [n] entries of {!norm2}: {!Bvec.norm_inf} on a
   vector of dimension [n]. *)
let[@inline always] norm_inf (v : Bvec.t) n =
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    let m = norm2 (Bigarray.Array1.unsafe_get v.Bvec.re i) (Bigarray.Array1.unsafe_get v.Bvec.im i) in
    if m > !acc then acc := m
  done;
  !acc

(* ---- point solvers ----

   Each writes slot [ix] of the caller's planar response row
   ([re]/[im] plus the [ok] validity byte, '\000' = singular). Keeping
   the output planar avoids boxing a [Some Complex.t] per point in the
   campaign inner loop. *)

let write_out out (x : Bvec.t) ~re ~im ~ok ~ix =
  (match out with
  | None ->
      Array.unsafe_set re ix 0.0;
      Array.unsafe_set im ix 0.0
  | Some oi ->
      Array.unsafe_set re ix (Bigarray.Array1.unsafe_get x.Bvec.re oi);
      Array.unsafe_set im ix (Bigarray.Array1.unsafe_get x.Bvec.im oi));
  Bytes.unsafe_set ok ix '\001'

(* The fallbacks' common end, booked as one full solve: factor the
   fallback workspace's matrix, solve it for [b] and write entry [out]
   of the solution, or a singular point. *)
let fallback_solve s ~b ~out ~re ~im ~ok ~ix =
  s.pend.p_full <- s.pend.p_full + 1;
  match
    Obs.Metrics.time "mna.solve_s" (fun () ->
        Cmat.lu_factor_into s.slu s.sm;
        Cmat.lu_solve_into s.slu ~b ~x:s.sx)
  with
  | () -> write_out out s.sx ~re ~im ~ok ~ix
  | exception Cmat.Singular ->
      Array.unsafe_set re ix 0.0;
      Array.unsafe_set im ix 0.0;
      Bytes.unsafe_set ok ix '\000'

(* Full fallback at frequency [i]: perturb a copy of A(jω) and
   refactorize — exactly the naive path, minus the assembly. *)
let full_point_solve t i (r1 : rank1) ~re ~im ~ok =
  let al_re = r1.alpha_g and al_im = t.omega.(i) *. r1.alpha_c in
  let s = fallback_ws (Domain.DLS.get scratch_key) t.n in
  Csparse.dense_into t.spat t.vals.(i) s.sm;
  let u = r1.u in
  Array.iteri
    (fun a ri ->
      let si = u.signs.(a) in
      Array.iteri
        (fun b rj ->
          let sj = u.signs.(b) in
          Cmat.add_to s.sm ri rj
            { Complex.re = al_re *. si *. sj; Complex.im = al_im *. si *. sj })
        u.rows)
    u.rows;
  let b = t.b.(i) in
  for k = 0 to t.n - 1 do
    Bigarray.Array1.unsafe_set s.sb.Bvec.re k (Bigarray.Array1.unsafe_get b.Bvec.re k);
    Bigarray.Array1.unsafe_set s.sb.Bvec.im k (Bigarray.Array1.unsafe_get b.Bvec.im k)
  done;
  fallback_solve s ~b:s.sb ~out:t.out_idx ~re ~im ~ok ~ix:i

(* After refinement a healthy update sits at ~machine-precision
   normwise relative residual; anything above this bound means the
   update genuinely struggled (wild growth, near-cancelling denom) and
   the full refactorization is worth its O(n³). *)
let smw_tolerance = 1e-9

(* Conformance-testing chaos hook: [`Smw_denominator k] scales the
   Sherman–Morrison denominator by [k] and bypasses the residual guard
   — the exact class of silent-wrong-answer bug the differential
   oracles exist to catch. Skipping the guard is the point: a real
   denominator bug shipped together with a broken guard is what makes
   the fast path return plausible-but-wrong responses. The hook is
   read before the a-priori bound below, so a chaotic point is never
   cleared: it builds the whole faulty vector and skips both the
   bound and the residual. *)
let chaos : [ `None | `Smw_denominator of float ] Atomic.t = Atomic.make `None
let set_chaos c = Atomic.set chaos c

(* ---- the a-priori residual bound ----

   The residual gate in {!smw_point_solve} builds x̂f = x̂₀ − ĉŵ whole
   and computes r̂ = b − A_f·x̂f with an O(nnz) mat-vec, though the
   campaign reads one entry of x̂f. A point can skip both when a bound
   proves the gate would pass at once. Exactly, with
   e = x̂f − (x̂₀ − ĉŵ) the rounding of x̂f and δ = ĉ(1 + αuᵀŵ) − αuᵀx̂₀
   the rounding of the scalar ĉ,

     b − A_f·x̂f = r₀ − ĉ·r_w + u·δ − A_f·e,  r₀ = b − Ax̂₀, r_w = u − Aŵ.

   Magnitudes are |z|₁ = |re| + |im|, under which a complex add errs by
   at most u|a ± b|₁, a multiply by γ₂|a|₁|b|₁ and Smith's quotient by
   γ₁₃|q|₁ (u = ε/2, γₖ = ku/(1 − ku)). Each term then has an O(|u|)
   bound, given per-frequency and per-column norms:
   - ‖r₀‖: one mat-vec per frequency plus its rounding
     γₙ₊₃(‖A‖‖x̂₀‖ + ‖b‖);
   - ‖r_w‖ ≤ γ₃ₙ₊₄₀‖|L̂||Û|‖‖ŵ‖: Higham's Thm 9.4 backward error
     |ΔA| ≤ γ₃ₙ|L̂||Û| (Accuracy and Stability of Numerical
     Algorithms), re-derived with the complex operation errors above;
     the pivot quotients add the 40;
   - |δ| ≤ γ₁₉(|ĉ|(|d̂| + |α|Σ|ŵⱼ|) + |α|Σ|x̂₀ⱼ|), d̂ the computed
     denominator, sums over the pattern's own entries (one or two);
   - |eᵢ| ≤ γ₄(|x̂₀ᵢ| + |ĉ||ŵᵢ|), so ‖Ae‖ ≤ γ₄‖A‖P with
     P = ‖x̂₀‖ + |ĉ|‖ŵ‖, and α·u·uᵀe ≤ γ₄|α|Q with
     Q = Σⱼ(|x̂₀ⱼ| + |ĉ||ŵⱼ|) on the pattern.
   The gate measures the computed residual, whose own rounding adds
   γₙ₊₄(‖A‖‖x̂f‖ + ‖b‖) for the mat-vec and γ₁₀|α|Q for the pattern
   correction, with ‖x̂f‖ ≤ (1 + γ₄)P. Collected, with γₐ + γᵦ ≤ γₐ₊ᵦ:

     B = r₀ + γ₃ₙ₊₄₀|ĉ|‖|L̂||Û|‖‖ŵ‖ + γₙ₊₈(‖A‖P + ‖b‖) + γ₃₀(|ĉ||d̂| + |α|Q).

   The gate's ‖x̂f‖∞ takes a hypot per entry, which is at least
   max(|re|, |im|) of any entry; L, that of x̂f[out] and x̂f[j*] (j*
   where x̂₀ peaks), is a lower bound, and so 1024ε(anorm·L + bnorm)
   is a lower bound on the gate's threshold. B under it proves the gate
   passes without refinement: the point books one SMW solve as before
   and writes x̂f[out], the same expression, so the same bits. B is
   evaluated on nonnegative floats, whose rounding the factor 1 + 2⁻²⁰
   covers; 1e-250 is a margin for gradual underflow; P, ‖A‖P < 1e300
   keep the gate's arithmetic clear of overflow; a nan fails every
   comparison.

   B reads the factorization only through r₀, ‖A‖ and ‖|L̂||Û|‖, which
   {!bound_of} takes from the frequency's own factors, and each step
   above holds on the sparse ones:
   - Thm 9.4 bounds a solve's backward error by the computed |L̂||Û|
     of the matrix that was factored, whatever the order of
     elimination. Csparse factors PAQ = L̂Û with static Markowitz
     pivots, left-looking, and any growth those pivots allow shows in
     |L̂||Û| itself. A term skipped because a factor entry is an exact
     zero adds no rounding.
   - Row and column permutations leave every ∞-norm as it is: P
     reorders the row sums of |L̂||Û| and Q the terms of each, so
     ‖Pᵀ|L̂||Û|Qᵀ‖ = ‖|L̂||Û|‖ ({!Csparse.lu_abs_norm_inf}).
   - The columns ŵ come from {!Csparse.solve_block_into}, bitwise equal
     to {!Csparse.solve_into} column by column (test_sparse's
     block-bitwise property), so Thm 9.4 covers them as it covers x̂₀.
   - A row of a sparse mat-vec accumulates at most n terms, its stored
     entries, so γₙ₊₃ and γₙ₊₄ bound the rounding of r₀ and of the
     gate's residual as they do for a dense row.
   test_fastsim checks the claim through {!guard_probe} on random dense
   systems and on random MNA-like ones whose Markowitz pivots fill and
   grow, both factored as an engine factors. *)

let gamma k =
  let ku = float_of_int k *. (epsilon_float /. 2.0) in
  ku /. (1.0 -. ku)

let gamma_scalar = gamma 30

(* The bound's per-frequency data, built by the first rank-1 point of
   a frequency. Its one pass over A(jω) also yields ‖A(jω)‖∞ for the
   gate's scale and publishes it into [t.anorm]: [Csparse.norms_inf]
   takes both norms in one pass, so {!anorm} reads the bits its own
   pass would compute. The maxima of |x̂₀ᵢ|₁ and |bᵢ|₁ are [nan] once
   an entry is, so no bound built on them clears a point. Racing
   domains compute equal values, so the loser of the publication drops
   its copy. *)
let bound_of t i =
  match Atomic.get t.bound.(i) with
  | Some g -> g
  | None ->
      let open Bigarray in
      let n = t.n and x0 = t.x0.(i) and b = t.b.(i) in
      let ax = (scratch_for n).resid in
      a_mul_vec t i ~x:x0 ~y:ax;
      let r = ref 0.0 in
      for k = 0 to n - 1 do
        let m =
          Float.abs (Array1.unsafe_get b.Bvec.re k -. Array1.unsafe_get ax.Bvec.re k)
          +. Float.abs (Array1.unsafe_get b.Bvec.im k -. Array1.unsafe_get ax.Bvec.im k)
        in
        if m > !r || Float.is_nan m then r := m
      done;
      let a1, a_inf = a_norms t i in
      let lu1 = Csparse.lu_abs_norm_inf t.num.(i) in
      Atomic.set t.anorm.(i) a_inf;
      let x01 = ref 0.0 and jmax = ref 0 and b1 = ref 0.0 in
      for k = 0 to n - 1 do
        let m =
          Float.abs (Array1.unsafe_get x0.Bvec.re k) +. Float.abs (Array1.unsafe_get x0.Bvec.im k)
        in
        if m > !x01 || Float.is_nan m then begin
          x01 := m;
          jmax := k
        end;
        let m =
          Float.abs (Array1.unsafe_get b.Bvec.re k) +. Float.abs (Array1.unsafe_get b.Bvec.im k)
        in
        if m > !b1 || Float.is_nan m then b1 := m
      done;
      let g =
        {
          r0 = !r +. (gamma (n + 3) *. ((a1 *. !x01) +. !b1));
          a1;
          b1 = !b1;
          lu1;
          x01 = !x01;
          jmax = !jmax;
          g_lu = gamma ((3 * n) + 40);
          g_mv = gamma (n + 8);
        }
      in
      ignore (Atomic.compare_and_set t.bound.(i) None (Some g));
      g

(* Entry i of the faulty solution x̂₀ − ĉŵ from x̂₀ᵢ and ŵᵢ = wr + i·wi:
   the gate's full build, the bound's lower bound and a cleared point's
   output all use these, so they agree bit for bit. *)
let[@inline always] xf_entry_re ~x0r ~wr ~wi ~coef_re ~coef_im =
  x0r -. ((coef_re *. wr) -. (coef_im *. wi))

let[@inline always] xf_entry_im ~x0i ~wr ~wi ~coef_re ~coef_im =
  x0i -. ((coef_re *. wi) +. (coef_im *. wr))

(* max(|re|, |im|) of x̂f[i]: a lower bound on the gate's ‖x̂f‖∞. The
   column ŵ starts at offset [woff] of its planes. *)
let[@inline always] xf_lower (x0 : Bvec.t) ~(wre : Cmat.plane) ~(wim : Cmat.plane) ~woff ~coef_re
    ~coef_im i =
  let open Bigarray in
  let wr = Array1.unsafe_get wre (woff + i) and wi = Array1.unsafe_get wim (woff + i) in
  let x0r = Array1.unsafe_get x0.Bvec.re i and x0i = Array1.unsafe_get x0.Bvec.im i in
  Float.max
    (Float.abs (xf_entry_re ~x0r ~wr ~wi ~coef_re ~coef_im))
    (Float.abs (xf_entry_im ~x0i ~wr ~wi ~coef_re ~coef_im))

(* Σ |vⱼ|₁ over the pattern's entries, read from offset [off]. *)
let[@inline always] abs_pat (u : pat) (re : Cmat.plane) (im : Cmat.plane) off =
  let acc = ref 0.0 in
  for e = 0 to Array.length u.rows - 1 do
    let i = off + Array.unsafe_get u.rows e in
    acc :=
      !acc
      +. Float.abs (Bigarray.Array1.unsafe_get re i)
      +. Float.abs (Bigarray.Array1.unsafe_get im i)
  done;
  !acc

(* Whether the bound B clears this point: B ≤ 1024ε(anorm·L + bnorm).
   ŵ is column [col] of the frequency's block, at offset [woff]. *)
let[@inline always] bound_clears t i (blk : block) ~col ~woff (u : pat) ~al_re ~al_im ~den_re
    ~den_im ~coef_re ~coef_im =
  let g = bound_of t i in
  let x0 = t.x0.(i) and wre = blk.cols_re and wim = blk.cols_im in
  let wnorm = Array.unsafe_get blk.wnorm col in
  let c1 = Float.abs coef_re +. Float.abs coef_im in
  let p = g.x01 +. (c1 *. wnorm) in
  let q = abs_pat u x0.Bvec.re x0.Bvec.im 0 +. (c1 *. abs_pat u wre wim woff) in
  let bound =
    g.r0
    +. (g.g_lu *. c1 *. g.lu1 *. wnorm)
    +. (g.g_mv *. ((g.a1 *. p) +. g.b1))
    +. gamma_scalar
       *. ((c1 *. (Float.abs den_re +. Float.abs den_im))
          +. ((Float.abs al_re +. Float.abs al_im) *. q))
  in
  let lower = xf_lower x0 ~wre ~wim ~woff ~coef_re ~coef_im g.jmax in
  let lower =
    match t.out_idx with
    | None -> lower
    | Some oi -> Float.max lower (xf_lower x0 ~wre ~wim ~woff ~coef_re ~coef_im oi)
  in
  let thr = 1024.0 *. epsilon_float *. ((anorm t i *. lower) +. t.bnorm.(i)) in
  (bound *. (1.0 +. 0x1p-20)) +. 1e-250 <= thr
  && thr < Float.infinity
  && p < 1e300
  && g.a1 *. p < 1e300

(* Residual of the perturbed system without forming it, into the
   scratch's [resid]: b − A_f xf = (b − α (vᵀxf) u) − A xf. *)
let[@inline always] faulty_residual t i (r1 : rank1) (s : scratch) =
  let open Bigarray in
  let n = t.n and u = r1.u and xf = s.xf and resid = s.resid and b = t.b.(i) in
  let al_re = r1.alpha_g and al_im = t.omega.(i) *. r1.alpha_c in
  let vxf_re = dot_pat u xf.Bvec.re 0 and vxf_im = dot_pat u xf.Bvec.im 0 in
  let av_re = (al_re *. vxf_re) -. (al_im *. vxf_im)
  and av_im = (al_re *. vxf_im) +. (al_im *. vxf_re) in
  a_mul_vec t i ~x:xf ~y:resid;
  let rre = resid.Bvec.re and rim = resid.Bvec.im in
  for k = 0 to n - 1 do
    Array1.unsafe_set rre k (Array1.unsafe_get b.Bvec.re k -. Array1.unsafe_get rre k);
    Array1.unsafe_set rim k (Array1.unsafe_get b.Bvec.im k -. Array1.unsafe_get rim k)
  done;
  for e = 0 to Array.length u.rows - 1 do
    let k = u.rows.(e) and sg = u.signs.(e) in
    Array1.set rre k (Array1.get rre k -. (sg *. av_re));
    Array1.set rim k (Array1.get rim k -. (sg *. av_im))
  done

(* One step of iterative refinement on the scratch's [xf]: a large |α|
   (a catastrophic open/short is a ~10⁹-fold conductance change)
   amplifies rounding in the bare update; correcting by the SMW solve
   of the residual restores direct-solve accuracy at O(fill). The SMW
   denominator is recomputed from the column by the point's own
   operations, so it has the point's bits. *)
let[@inline always] refine t i (blk : block) (r1 : rank1) (s : scratch) ~woff =
  let open Bigarray in
  let n = t.n and u = r1.u and xf = s.xf and d0 = s.d0 in
  let al_re = r1.alpha_g and al_im = t.omega.(i) *. r1.alpha_c in
  let wre = blk.cols_re and wim = blk.cols_im in
  let vw_re = dot_pat u wre woff and vw_im = dot_pat u wim woff in
  let den_re = 1.0 +. ((al_re *. vw_re) -. (al_im *. vw_im))
  and den_im = (al_re *. vw_im) +. (al_im *. vw_re) in
  a_solve t i ~b:s.resid ~x:d0;
  let d0re = d0.Bvec.re and d0im = d0.Bvec.im in
  let vd_re = dot_pat u d0re 0 and vd_im = dot_pat u d0im 0 in
  let nr = (al_re *. vd_re) -. (al_im *. vd_im) and ni = (al_re *. vd_im) +. (al_im *. vd_re) in
  let dc_re = div_re nr ni den_re den_im and dc_im = div_im nr ni den_re den_im in
  let xf_re = xf.Bvec.re and xf_im = xf.Bvec.im in
  for k = 0 to n - 1 do
    let wr = Array1.unsafe_get wre (woff + k) and wi = Array1.unsafe_get wim (woff + k) in
    Array1.unsafe_set xf_re k
      (Array1.unsafe_get xf_re k +. (Array1.unsafe_get d0re k -. ((dc_re *. wr) -. (dc_im *. wi))));
    Array1.unsafe_set xf_im k
      (Array1.unsafe_get xf_im k +. (Array1.unsafe_get d0im k -. ((dc_re *. wi) +. (dc_im *. wr))))
  done

(* The gate's scale: ‖A‖‖x̂f‖ + ‖b‖. *)
let[@inline always] gate_scale t i (s : scratch) =
  (anorm t i *. norm_inf s.xf t.n) +. t.bnorm.(i) +. 1e-300

(* [guard] false skips the a-priori bound: {!guard_probe}'s reference
   run. The point's column is the one [blk] holds for its slot. A
   point allocates nothing: every float stays in a register or a
   plane. *)
let smw_point_solve ~guard t i (blk : block) (r1 : rank1) ~re ~im ~ok =
  let u = r1.u and x0 = t.x0.(i) in
  let al_re = r1.alpha_g and al_im = t.omega.(i) *. r1.alpha_c in
  if al_re = 0.0 && al_im = 0.0 then write_out t.out_idx x0 ~re ~im ~ok ~ix:i
  else begin
    let col = blk.col_of.(r1.slot) in
    let woff = col * t.n in
    let wre = blk.cols_re and wim = blk.cols_im in
    let vw_re = dot_pat u wre woff and vw_im = dot_pat u wim woff in
    let den_re = 1.0 +. ((al_re *. vw_re) -. (al_im *. vw_im))
    and den_im = (al_re *. vw_im) +. (al_im *. vw_re) in
    let hook = Atomic.get chaos in
    let chaotic = match hook with `None -> false | `Smw_denominator _ -> true in
    let den_re = match hook with `None -> den_re | `Smw_denominator k -> den_re *. k
    and den_im = match hook with `None -> den_im | `Smw_denominator k -> den_im *. k in
    if norm2 den_re den_im <= 1e-12 then full_point_solve t i r1 ~re ~im ~ok
    else begin
      let vx0_re = dot_pat u x0.Bvec.re 0 and vx0_im = dot_pat u x0.Bvec.im 0 in
      let nr = (al_re *. vx0_re) -. (al_im *. vx0_im)
      and ni = (al_re *. vx0_im) +. (al_im *. vx0_re) in
      let coef_re = div_re nr ni den_re den_im and coef_im = div_im nr ni den_re den_im in
      if
        guard && (not chaotic)
        && bound_clears t i blk ~col ~woff u ~al_re ~al_im ~den_re ~den_im ~coef_re ~coef_im
      then begin
        let p = pending () in
        p.p_smw <- p.p_smw + 1;
        p.p_cleared <- p.p_cleared + 1;
        (match t.out_idx with
        | None ->
            Array.unsafe_set re i 0.0;
            Array.unsafe_set im i 0.0
        | Some oi ->
            let open Bigarray in
            let wr = Array1.unsafe_get wre (woff + oi)
            and wi = Array1.unsafe_get wim (woff + oi) in
            let x0r = Array1.unsafe_get x0.Bvec.re oi
            and x0i = Array1.unsafe_get x0.Bvec.im oi in
            Array.unsafe_set re i (xf_entry_re ~x0r ~wr ~wi ~coef_re ~coef_im);
            Array.unsafe_set im i (xf_entry_im ~x0i ~wr ~wi ~coef_re ~coef_im));
        Bytes.unsafe_set ok i '\001'
      end
      else begin
        let n = t.n in
        let s = scratch_for n in
        let xf = s.xf in
        let xf_re = xf.Bvec.re and xf_im = xf.Bvec.im in
        let open Bigarray in
        for k = 0 to n - 1 do
          let wr = Array1.unsafe_get wre (woff + k) and wi = Array1.unsafe_get wim (woff + k) in
          Array1.unsafe_set xf_re k
            (xf_entry_re ~x0r:(Array1.unsafe_get x0.Bvec.re k) ~wr ~wi ~coef_re ~coef_im);
          Array1.unsafe_set xf_im k
            (xf_entry_im ~x0i:(Array1.unsafe_get x0.Bvec.im k) ~wr ~wi ~coef_re ~coef_im)
        done;
        if chaotic then begin
          let p = pending () in
          p.p_smw <- p.p_smw + 1;
          write_out t.out_idx xf ~re ~im ~ok ~ix:i
        end
        else begin
          (* The a-priori bound has cleared most points before the
             residual is ever computed. The common case left — a mild
             deviation whose bare update already sits near
             machine-precision residual (the 1024·ε gate below) — skips
             the refinement's back-solve. The gate's scale reads x̂f,
             so it is recomputed only when a refinement step moved
             x̂f. *)
          faulty_residual t i r1 s;
          let res = ref (norm_inf s.resid n) and scale = ref (gate_scale t i s) in
          if not (!res <= 1024.0 *. epsilon_float *. !scale) then begin
            let p = pending () in
            p.p_refine <- p.p_refine + 1;
            refine t i blk r1 s ~woff;
            faulty_residual t i r1 s;
            res := norm_inf s.resid n;
            scale := gate_scale t i s
          end;
          if !res <= smw_tolerance *. !scale then begin
            let p = pending () in
            p.p_smw <- p.p_smw + 1;
            write_out t.out_idx xf ~re ~im ~ok ~ix:i
          end
          else full_point_solve t i r1 ~re ~im ~ok
        end
      end
    end
  end

(* ---- structural fallback: the plan holds the faulty netlist's stamp
   run; each point fills its plane, densifies it and factorizes in
   per-domain fallback workspaces ---- *)

let structural_point ~s_stamps ~s_n ~s_out t i ~re ~im ~ok =
  let s = fallback_ws (Domain.DLS.get scratch_key) s_n in
  let nnz = Mna.Stamps.sparse_nnz s_stamps in
  if Bigarray.Array1.dim s.svals < 2 * nnz then s.svals <- Csparse.plane (2 * nnz);
  Mna.Stamps.fill_sparse s_stamps ~omega:t.omega.(i) s.svals;
  Csparse.dense_into (Mna.Stamps.sparse_pattern s_stamps) s.svals s.sm;
  Mna.Stamps.sparse_rhs_into s_stamps ~omega:t.omega.(i) s.sb;
  fallback_solve s ~b:s.sb ~out:s_out ~re ~im ~ok ~ix:i

(* ---- the sweep: every row of a view, one frequency at a time ---- *)

(* This domain's block, sized for [k] columns of dimension [n] on an
   engine of [slots] slots; storage only grows. *)
let block_for s ~n ~k ~slots =
  let b = s.blk in
  if b.cap < n * k then begin
    b.cap <- n * k;
    b.rhs <- Cmat.create 1 b.cap;
    b.sol <- Cmat.create 1 b.cap;
    b.work <- Cmat.create 1 b.cap;
    b.rhs_re <- Cmat.re_plane b.rhs;
    b.sol_re <- Cmat.re_plane b.sol;
    b.sol_im <- Cmat.im_plane b.sol;
    b.cols_re <- Csparse.plane b.cap;
    b.cols_im <- Csparse.plane b.cap
  end;
  if Array.length b.col_of < slots then b.col_of <- Array.make slots (-1);
  if Array.length b.slot_at < k then begin
    b.slot_at <- Array.make k 0;
    b.wnorm <- Array.make k 0.0
  end;
  b

(* Write the pattern's signs into column [c] of an n×k row-major plane,
   or zeros with [~clear]. *)
let[@inline always] stamp_pat (u : pat) (plane : Cmat.plane) ~k ~c ~clear =
  for e = 0 to Array.length u.rows - 1 do
    Bigarray.Array1.unsafe_set plane
      ((Array.unsafe_get u.rows e * k) + c)
      (if clear then 0.0 else Array.unsafe_get u.signs e)
  done

(* The block back-solve of frequency [i] on n×k shapes of the block's
   storage. *)
let[@inline never] block_solve t i (blk : block) ~k =
  let n = t.n in
  Csparse.solve_block_into t.num.(i)
    ~work:(Cmat.reshape blk.work ~rows:n ~cols:k)
    ~b:(Cmat.reshape blk.rhs ~rows:n ~cols:k)
    ~x:(Cmat.reshape blk.sol ~rows:n ~cols:k)

(* The frequency's [k] columns, named by [blk.slot_at]: one block
   back-solve, bitwise equal to [k] single solves, then a transpose so
   that column [c] lies contiguously at offset [c·n] of the block's
   column planes, taking each column's norm on the way. *)
let solve_columns t i blk ~k =
  let open Bigarray in
  let n = t.n in
  let bre = blk.rhs_re in
  for c = 0 to k - 1 do
    stamp_pat t.slot_pats.(blk.slot_at.(c)) bre ~k ~c ~clear:false
  done;
  block_solve t i blk ~k;
  for c = 0 to k - 1 do
    stamp_pat t.slot_pats.(blk.slot_at.(c)) bre ~k ~c ~clear:true;
    blk.wnorm.(c) <- 0.0
  done;
  let sre = blk.sol_re and sim = blk.sol_im in
  let cre = blk.cols_re and cim = blk.cols_im in
  for r = 0 to n - 1 do
    let ri = r * k in
    for c = 0 to k - 1 do
      let wr = Array1.unsafe_get sre (ri + c) and wi = Array1.unsafe_get sim (ri + c) in
      Array1.unsafe_set cre ((c * n) + r) wr;
      Array1.unsafe_set cim ((c * n) + r) wi;
      (* max over r of |ŵᵣ|₁, [nan] once an entry is *)
      let m = Float.abs wr +. Float.abs wi in
      if m > blk.wnorm.(c) || Float.is_nan m then blk.wnorm.(c) <- m
    done
  done

(* At each frequency in turn: gather the distinct slots the rank-1 rows
   read there, solve them as one block, then run every row's point.
   A column lives only while its frequency is processed. Counts stay
   in this domain's pending record for the caller to flush. *)
let sweep_rows ~guard t plans ~skip ~re ~im ~ok =
  check_live t;
  let rows = Array.length plans and nf = t.nf in
  let short b = Bytes.length b < nf and short_a a = Array.length a < nf in
  if
    Array.length skip <> rows || Array.length re <> rows || Array.length im <> rows
    || Array.length ok <> rows || Array.exists short skip || Array.exists short_a re
    || Array.exists short_a im || Array.exists short ok
  then invalid_arg "Fastsim.sweep: one skip mask and one set of row buffers per plan";
  let s = Domain.DLS.get scratch_key in
  let p = s.pend in
  let slots = Array.length t.slot_pats in
  (* The distinct slots of all rank-1 rows bound every frequency's k,
     so the block is sized once, before the first frequency. *)
  let seen = Bytes.make slots '\000' and kmax = ref 0 in
  Array.iter
    (function
      | P_rank1 { slot; _ } when Bytes.get seen slot = '\000' ->
          Bytes.set seen slot '\001';
          incr kmax
      | P_rank1 _ | P_unchanged | P_structural _ -> ())
    plans;
  let blk = block_for s ~n:t.n ~k:!kmax ~slots in
  Array.fill blk.col_of 0 slots (-1);
  for i = 0 to nf - 1 do
    let omega = t.omega.(i) in
    let k = ref 0 and reads = ref 0 in
    for r = 0 to rows - 1 do
      if Bytes.unsafe_get skip.(r) i = '\000' then
        match plans.(r) with
        (* a point whose α(ω) is zero keeps the nominal and reads no column *)
        | P_rank1 r1 when not (r1.alpha_g = 0.0 && omega *. r1.alpha_c = 0.0) ->
            incr reads;
            if blk.col_of.(r1.slot) < 0 then begin
              blk.col_of.(r1.slot) <- !k;
              blk.slot_at.(!k) <- r1.slot;
              incr k
            end
        | P_rank1 _ | P_unchanged | P_structural _ -> ()
    done;
    let k = !k in
    p.p_misses <- p.p_misses + k;
    p.p_hits <- p.p_hits + (!reads - k);
    if k > 0 then solve_columns t i blk ~k;
    for r = 0 to rows - 1 do
      if Bytes.unsafe_get skip.(r) i = '\000' then
        let re = re.(r) and im = im.(r) and ok = ok.(r) in
        match plans.(r) with
        | P_unchanged -> write_out t.out_idx t.x0.(i) ~re ~im ~ok ~ix:i
        | P_rank1 r1 -> smw_point_solve ~guard t i blk r1 ~re ~im ~ok
        | P_structural { s_stamps; s_n; s_out } ->
            structural_point ~s_stamps ~s_n ~s_out t i ~re ~im ~ok
    done;
    for c = 0 to k - 1 do
      blk.col_of.(blk.slot_at.(c)) <- -1
    done
  done

let sweep t plans ~skip ~re ~im ~ok =
  Fun.protect ~finally:(fun () -> flush_pending (pending ())) @@ fun () ->
  sweep_rows ~guard:true t plans ~skip ~re ~im ~ok

let response t fault =
  let plan = plan_of t fault in
  let nf = t.nf in
  let rre = Array.make nf 0.0
  and rim = Array.make nf 0.0
  and ok = Bytes.make nf '\000' in
  sweep t [| plan |] ~skip:[| Bytes.make nf '\000' |] ~re:[| rre |] ~im:[| rim |] ~ok:[| ok |];
  Array.init nf (fun i ->
      if Bytes.get ok i = '\000' then None
      else Some { Complex.re = rre.(i); im = rim.(i) })

(* One system A x = b, output entry [out], and the rank-1 update
   α·uuᵀ, solved as an engine point at ω = 1 (so α's imaginary part
   passes through exactly): once with the a-priori bound, once
   without. A is factored as an engine factors: a Csparse pattern of
   its nonzero entries, with the Markowitz order {!Csparse.analyze}
   picks for A's own values, and the factors behind the values in one
   plane. *)
let guard_probe ~a ~b ~u ~(alpha : Complex.t) ~out =
  let n = Cmat.rows a in
  let x0 = Bvec.create n in
  let are = Cmat.re_plane a and aim = Cmat.im_plane a in
  let stored =
    List.filter (fun k -> are.{k} <> 0.0 || aim.{k} <> 0.0) (List.init (n * n) Fun.id)
  in
  let spat = Csparse.pattern ~n (Array.of_list (List.map (fun k -> (k / n, k mod n)) stored)) in
  let nnz = Csparse.nnz spat in
  let values = Csparse.plane (2 * nnz) in
  List.iter
    (fun k ->
      let slot = Csparse.slot spat ~row:(k / n) ~col:(k mod n) in
      values.{slot} <- are.{k};
      values.{nnz + slot} <- aim.{k})
    stored;
  let sym = Csparse.analyze spat values in
  let vals = Csparse.plane ((2 * nnz) + Csparse.factor_len sym) in
  Bigarray.Array1.blit values (Bigarray.Array1.sub vals 0 (2 * nnz));
  let num = Csparse.numeric sym vals ~off:(2 * nnz) in
  Csparse.refactor num vals;
  Csparse.solve_into num ~b ~x:x0;
  let t =
    {
      netlist = Netlist.empty ~title:"guard probe" ();
      source = "";
      output = "";
      out_idx = Some out;
      n;
      nf = 1;
      spat;
      omega = [| 1.0 |];
      vals = [| vals |];
      num = [| num |];
      b = [| b |];
      bnorm = [| Bvec.norm_inf b |];
      x0 = [| x0 |];
      anorm = [| Atomic.make Float.nan |];
      bound = [| Atomic.make None |];
      nominal = [| Bvec.get x0 out |];
      slot_of = Hashtbl.create 1;
      slot_pats = [| pat_of_list u |];
      analysis = None;
      lease = None;
    }
  in
  let r1 = { slot = 0; u = t.slot_pats.(0); alpha_g = alpha.Complex.re; alpha_c = alpha.Complex.im } in
  let run ~guard =
    let re = [| 0.0 |] and im = [| 0.0 |] and ok = Bytes.make 1 '\000' in
    let p = pending () in
    let cleared = p.p_cleared and refined = p.p_refine and full = p.p_full in
    Fun.protect ~finally:(fun () -> flush_pending p) @@ fun () ->
    sweep_rows ~guard t [| P_rank1 r1 |] ~skip:[| Bytes.make 1 '\000' |] ~re:[| re |] ~im:[| im |]
      ~ok:[| ok |];
    ( p.p_cleared > cleared,
      p.p_refine = refined && p.p_full = full,
      (Int64.bits_of_float re.(0), Int64.bits_of_float im.(0), Bytes.get ok 0) )
  in
  let cleared, _, guarded = run ~guard:true in
  let _, passes, plain = run ~guard:false in
  (cleared, passes, guarded = plain)
