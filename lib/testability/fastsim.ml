module Netlist = Circuit.Netlist
module Element = Circuit.Element
module Cmat = Linalg.Cmat
module Bvec = Cmat.Vec
module Csparse = Linalg.Csparse

(* A sparse ±1 stamp pattern: the nonzero rows of the rank-1 factor u,
   as (index, sign) pairs. *)
type pat = (int * float) list

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
   pool serves, and a smaller engine uses their leading part
   ({!Bvec.prefix}). A(jω)'s values and its sparse factors lie in one
   plane per frequency that only grows: an engine takes views of its
   leading part, as many elements as its pattern and fill need.
   Leaving the bracket bumps the workspace's generation — every engine
   built on it is dead from then on — and hands the workspace back to
   the pool, so the next engine, of whatever dimension up to the
   workspace's, reuses all of it. *)

type workspace = {
  ws_n : int;  (* the largest dimension it serves *)
  pooled : bool;  (* a pool's, which counts its allocations and grows its planes with headroom *)
  mutable ws_b : Bvec.t array;
  mutable ws_x0 : Bvec.t array;
  mutable ws_planes : Csparse.plane array;  (* per frequency: A(jω)'s values, then its factors *)
  mutable ws_vals : Csparse.plane;  (* the values an analysis reads *)
  gen : int Atomic.t;  (* bumped when a bracket ends *)
}

(* The workspaces no bracket is using, and the dimension a new one is
   sized for. *)
type pool = { pool_lock : Mutex.t; mutable idle : workspace list; pool_dim : int }

let pool ~dim = { pool_lock = Mutex.create (); idle = []; pool_dim = dim }

let workspace_create ~pooled n =
  {
    ws_n = n;
    pooled;
    ws_b = [||];
    ws_x0 = [||];
    ws_planes = [||];
    ws_vals = Csparse.plane 0;
    gen = Atomic.make 0;
  }

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

(* A plane of at least [len] elements in place of [p]: [p] itself if
   it is long enough. A pooled workspace grows by half again at least,
   so engines whose fill creeps up one after another do not reallocate
   each time. *)
let grown ws (p : Csparse.plane) len =
  let cap = Bigarray.Array1.dim p in
  if cap >= len then p
  else Csparse.plane (if ws.pooled then Int.max len (cap + (cap / 2)) else len)

let release pool ws =
  Atomic.incr ws.gen;
  Mutex.protect pool.pool_lock (fun () -> pool.idle <- ws :: pool.idle)

(* The factored fault-free system at one frequency: A(jω)'s values,
   slot order of the engine's pattern, and its sparse factors —
   O(nnz + fill) per frequency, views of the frequency's plane. The
   dense fallbacks densify on demand. *)
type freq_state = {
  omega : float;
  spat : Csparse.pattern;
  sre : Csparse.plane;
  sim_ : Csparse.plane;
  num : Csparse.numeric;
  anorm : float Atomic.t;  (* ‖A(jω)‖∞, nan until {!bound_of} or a point first reads it *)
  b : Bvec.t;
  bnorm : float;
  x0 : Bvec.t;
  bound : bound_data option Atomic.t;  (* built at the first rank-1 point *)
}

(* What the a-priori residual bound reads of one frequency (see
   {!bound_clears}); magnitudes use |z|₁ = |re| + |im|. *)
and bound_data = {
  r0 : float;  (* upper bound on ‖b − A x̂₀‖ *)
  a1 : float;  (* ‖A‖ *)
  b1 : float;  (* ‖b‖ *)
  lu1 : float;  (* ‖|L̂||Û|‖ *)
  x01 : float;  (* ‖x̂₀‖ *)
  jmax : int;  (* where |x̂₀ᵢ|₁ peaks *)
  g_lu : float;  (* γ₃ₙ₊₄₀: the LU backward error's constant *)
  g_mv : float;  (* γₙ₊₈: the residual mat-vec's rounding constant *)
}

let mul_vec_into fs ~x ~y = Csparse.mul_vec_into fs.spat ~re:fs.sre ~im:fs.sim_ ~x ~y

(* ‖A(jω)‖∞, taken at the first point that reads it, so an engine that
   only reports its nominal (Monte-Carlo's sweeps) never pays the pass
   over A. {!bound_of} publishes it from its own pass over A; this pass
   serves the points that never build the bound (the chaos hook,
   {!guard_probe}'s reference run). A(jω) is never written after the
   build, so domains racing to fill it store the same value. *)
let anorm fs =
  let v = Atomic.get fs.anorm in
  if not (Float.is_nan v) then v
  else begin
    let v = snd (Csparse.norms_inf fs.spat ~re:fs.sre ~im:fs.sim_) in
    Atomic.set fs.anorm v;
    v
  end

type t = {
  netlist : Netlist.t;
  source : string;
  output : string;
  out_idx : int option;
  n : int;
  freqs : freq_state array;
  nominal : Complex.t array;
  slot_of : (string, int) Hashtbl.t;  (* passive -> its stamp pattern's slot *)
  slot_pats : pat array;
  analysis : (Csparse.pattern * Csparse.symbolic) option;  (* the one the refactors share *)
  lease : (workspace * int) option;  (* bracket storage and its generation *)
}

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
  | P_structural of { s_stamps : Mna.Stamps.t; s_n : int; s_out : int option }

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
   frequencies, [cols] holds the solutions column by column so that a
   point reads its column contiguously, and every plane only grows. *)
type block = {
  mutable cap : int;  (* elements per plane of each of the four blocks *)
  mutable rhs : Cmat.t;
  mutable sol : Cmat.t;
  mutable work : Cmat.t;  (* a sparse solve's permuted block *)
  mutable cols : Cmat.t;  (* column c at offset c·n *)
  mutable col_of : int array;  (* slot -> its column at this frequency, −1 if none *)
  mutable slot_at : int array;  (* column -> slot *)
  mutable wnorm : float array;  (* column -> ‖ŵ‖ (|z|₁ = |re| + |im|), for the a-priori bound *)
}

(* Per-domain off-heap workspaces for the rank-1 hot path: one scratch
   record per domain (via DLS). Workers therefore share nothing but the
   scheduler state and the read-only engine/plan state. The [s*] fields
   are the fallback workspace (full refactorization and structural
   assembly), sized independently because a structural netlist can
   change the system dimension. Storage only grows: the fields a
   solve reads are prefix views of the [*_store] buffers at the
   dimension last asked for, so engines of alternating dimensions
   reuse one allocation. *)
type scratch = {
  mutable dim : int;
  mutable xf : Bvec.t;  (* candidate faulty solution *)
  mutable resid : Bvec.t;  (* faulty residual b_f − A_f xf *)
  mutable d0 : Bvec.t;  (* refinement back-solve *)
  mutable xf_store : Bvec.t;
  mutable resid_store : Bvec.t;
  mutable d0_store : Bvec.t;
  mutable sdim : int;
  mutable sm : Cmat.t;  (* fallback assembly / perturbed-copy target *)
  mutable slu : Cmat.lu;
  mutable sb : Bvec.t;
  mutable sx : Bvec.t;
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
        dim = -1;
        xf = Bvec.create 0;
        resid = Bvec.create 0;
        d0 = Bvec.create 0;
        xf_store = Bvec.create 0;
        resid_store = Bvec.create 0;
        d0_store = Bvec.create 0;
        sdim = -1;
        sm = Cmat.create 0 0;
        slu = Cmat.lu_create 0;
        sb = Bvec.create 0;
        sx = Bvec.create 0;
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
            cols = Cmat.create 0 0;
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
  if s.dim <> n then begin
    if Bvec.length s.xf_store < n then begin
      s.xf_store <- Bvec.create n;
      s.resid_store <- Bvec.create n;
      s.d0_store <- Bvec.create n
    end;
    s.dim <- n;
    s.xf <- Bvec.prefix s.xf_store n;
    s.resid <- Bvec.prefix s.resid_store n;
    s.d0 <- Bvec.prefix s.d0_store n
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

let two_node_pat index n1 n2 : pat =
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
              pats := pat :: !pats;
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

(* The engine of [netlist] on the workspace [acquire n] returns for
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
   LU would decide from the same values. *)
let build ~acquire ?analysis ~source ~output ~freqs_hz netlist =
  Obs.Trace.span "fastsim.create" @@ fun () ->
  let index = Mna.Index.build netlist in
  let n = Mna.Index.size index in
  let ws, lease = acquire n in
  let nf = Array.length freqs_hz in
  let out_idx = Mna.Index.node index output in
  let slot_of, slot_pats = intern_slots index netlist in
  let sp = Mna.Stamps.build_sparse ~sources:(Mna.Assemble.Only source) index netlist in
  let spat = Mna.Stamps.sparse_pattern sp and nnz = Mna.Stamps.sparse_nnz sp in
  if ensure_vectors ws ~nf && ws.pooled then Obs.Metrics.incr "fastsim.workspace_allocs";
  let grow = grown ws in
  (* The frequency's values, written into the analysis plane. *)
  let values omega =
    ws.ws_vals <- grow ws.ws_vals (2 * nnz);
    let re = Bigarray.Array1.sub ws.ws_vals 0 nnz
    and im = Bigarray.Array1.sub ws.ws_vals nnz nnz in
    Mna.Stamps.fill_sparse sp ~omega ~re ~im;
    (re, im)
  in
  let analyze (re, im) =
    Obs.Metrics.time "mna.analyze_s" (fun () -> Csparse.analyze spat ~re ~im)
  in
  let analysis =
    match analysis with
    | Some (p, sym) when p = spat -> Some (p, sym)
    | _ when nf = 0 -> None
    | _ -> (
        match analyze (values (2.0 *. Float.pi *. freqs_hz.(nf / 2))) with
        | exception Cmat.Singular -> None
        | sym -> Some (spat, sym))
  in
  (* Frequency [i] factored under [sym]: its values, then the factors,
     in views of its plane. Raises [Cmat.Singular] from the
     refactorization. *)
  let factor i omega sym =
    let num =
      Csparse.numeric sym ~store:(fun len ->
          ws.ws_planes.(i) <- grow ws.ws_planes.(i) ((2 * nnz) + len);
          Bigarray.Array1.sub ws.ws_planes.(i) (2 * nnz) len)
    in
    let plane = ws.ws_planes.(i) in
    let sre = Bigarray.Array1.sub plane 0 nnz and sim_ = Bigarray.Array1.sub plane nnz nnz in
    Mna.Stamps.fill_sparse sp ~omega ~re:sre ~im:sim_;
    Obs.Metrics.time "mna.factor_s" (fun () -> Csparse.refactor num ~re:sre ~im:sim_);
    (sre, sim_, num)
  in
  let reanalyzed i omega f_hz =
    Obs.Metrics.incr "fastsim.reanalyses";
    match factor i omega (analyze (values omega)) with
    | exception Cmat.Singular -> singular_at netlist f_hz
    | r -> r
  in
  let freqs =
    Array.mapi
      (fun i f_hz ->
        let omega = 2.0 *. Float.pi *. f_hz in
        let sre, sim_, num =
          match analysis with
          | None -> reanalyzed i omega f_hz
          | Some (_, sym) -> (
              match factor i omega sym with
              | exception Cmat.Singular -> reanalyzed i omega f_hz
              | r -> r)
        in
        let b = Bvec.prefix ws.ws_b.(i) n in
        Mna.Stamps.sparse_rhs_into sp ~omega b;
        let x0 = Bvec.prefix ws.ws_x0.(i) n in
        Csparse.solve_into num ~b ~x:x0;
        {
          omega;
          spat;
          sre;
          sim_;
          num;
          anorm = Atomic.make Float.nan;
          b;
          bnorm = Bvec.norm_inf b;
          x0;
          bound = Atomic.make None;
        })
      freqs_hz
  in
  let nominal =
    Array.map
      (fun fs -> match out_idx with None -> Complex.zero | Some i -> Bvec.get fs.x0 i)
      freqs
  in
  { netlist; source; output; out_idx; n; freqs; nominal; slot_of; slot_pats; analysis; lease }

let create ~source ~output ~freqs_hz netlist =
  build
    ~acquire:(fun n -> (workspace_create ~pooled:false n, None))
    ~source ~output ~freqs_hz netlist

let bracket ~pool ?analysis ~source ~output ~freqs_hz netlist f =
  let leased = ref None in
  let acquire n =
    let ws = acquire_workspace pool n in
    leased := Some ws;
    (ws, Some (ws, Atomic.get ws.gen))
  in
  Fun.protect
    ~finally:(fun () -> Option.iter (release pool) !leased)
    (fun () -> f (build ~acquire ?analysis ~source ~output ~freqs_hz netlist))

let with_engine ~pool ~source ~output ~freqs_hz netlist f =
  bracket ~pool ~source ~output ~freqs_hz netlist f

let nominal t =
  check_live t;
  t.nominal

(* One pool and one analysis for a netlist and its copies: the nominal
   engine's analysis serves every copy of the same pattern, which only
   refactors. *)
let drift_sweeper ~source ~output ~freqs_hz netlist =
  let pool = pool ~dim:(Mna.Index.size (Mna.Index.build netlist)) in
  let first, analysis =
    bracket ~pool ~source ~output ~freqs_hz netlist (fun t -> (nominal t, t.analysis))
  in
  (first, fun copy -> bracket ~pool ?analysis ~source ~output ~freqs_hz copy nominal)

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
      let order = Array.init (Array.length t.freqs) Fun.id in
      let mag i = Complex.norm t.nominal.(i) in
      Array.stable_sort (fun i j -> Float.compare (mag j) (mag i)) order;
      Array.for_all
        (fun i ->
          let fs = t.freqs.(i) in
          Csparse.solve_transpose_into fs.num ~b:e ~x:y;
          let form = Csparse.abs_bilinear fs.spat ~re:fs.sre ~im:fs.sim_ ~y ~x:fs.x0 in
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
      let index = Mna.Index.build faulty in
      let stamps =
        Mna.Stamps.build ~sources:(Mna.Assemble.Only t.source) index faulty
      in
      P_structural
        {
          s_stamps = stamps;
          s_n = Mna.Stamps.size stamps;
          s_out = Mna.Index.node index t.output;
        }

(* ---- rank-1 solves ---- *)

(* Pattern dot product against one plane, read from offset [off]:
   Σ s·plane.(off + i). The complex dot against a planar vector is two
   of these, one per plane. *)
let rec dot_pat (pat : pat) (plane : Cmat.plane) off acc =
  match pat with
  | [] -> acc
  | (i, s) :: tl ->
      dot_pat tl plane off (acc +. (s *. Bigarray.Array1.unsafe_get plane (off + i)))

let dot_pat pat plane off = dot_pat pat plane off 0.0

(* (nr + i·ni) / (dr + i·di) — Smith's algorithm, exactly Complex.div. *)
let div2 nr ni dr di =
  if Float.abs dr >= Float.abs di then
    let r = di /. dr in
    let d = dr +. (r *. di) in
    ((nr +. (r *. ni)) /. d, (ni -. (r *. nr)) /. d)
  else
    let r = dr /. di in
    let d = di +. (r *. dr) in
    (((r *. nr) +. ni) /. d, ((r *. ni) -. nr) /. d)

(* max |vᵢ|₁ and an index that reaches it. [nan] once an entry is
   [nan], so no bound built on it clears a point. *)
let norm1_inf_arg (v : Bvec.t) =
  let open Bigarray in
  let acc = ref 0.0 and arg = ref 0 in
  for i = 0 to Bvec.length v - 1 do
    let m =
      Float.abs (Array1.unsafe_get v.Bvec.re i) +. Float.abs (Array1.unsafe_get v.Bvec.im i)
    in
    if m > !acc || Float.is_nan m then begin
      acc := m;
      arg := i
    end
  done;
  (!acc, !arg)


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

(* Full fallback at one frequency: perturb a copy of A(jω) and
   refactorize — exactly the naive path, minus the assembly. *)
let full_point_solve t fs ~al_re ~al_im ~u ~re ~im ~ok ~ix =
  let s = fallback_ws (Domain.DLS.get scratch_key) t.n in
  Csparse.dense_into fs.spat ~re:fs.sre ~im:fs.sim_ s.sm;
  List.iter
    (fun (i, si) ->
      List.iter
        (fun (j, sj) ->
          Cmat.add_to s.sm i j
            { Complex.re = al_re *. si *. sj; Complex.im = al_im *. si *. sj })
        u)
    u;
  fallback_solve s ~b:fs.b ~out:t.out_idx ~re ~im ~ok ~ix

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
   gate's scale and publishes it into [fs.anorm]: [Csparse.norms_inf]
   takes both norms in one pass, so {!anorm} reads the bits its own
   pass would compute. Racing domains compute equal
   values, so the loser of the publication drops its copy. *)
let bound_of fs =
  match Atomic.get fs.bound with
  | Some g -> g
  | None ->
      let n = Bvec.length fs.x0 in
      let ax = (scratch_for n).resid in
      mul_vec_into fs ~x:fs.x0 ~y:ax;
      let open Bigarray in
      let r = ref 0.0 in
      for i = 0 to n - 1 do
        let m =
          Float.abs (Array1.unsafe_get fs.b.Bvec.re i -. Array1.unsafe_get ax.Bvec.re i)
          +. Float.abs (Array1.unsafe_get fs.b.Bvec.im i -. Array1.unsafe_get ax.Bvec.im i)
        in
        if m > !r || Float.is_nan m then r := m
      done;
      let a1, a_inf = Csparse.norms_inf fs.spat ~re:fs.sre ~im:fs.sim_ in
      let lu1 = Csparse.lu_abs_norm_inf fs.num in
      Atomic.set fs.anorm a_inf;
      let x01, jmax = norm1_inf_arg fs.x0 and b1, _ = norm1_inf_arg fs.b in
      let g =
        {
          r0 = !r +. (gamma (n + 3) *. ((a1 *. x01) +. b1));
          a1;
          b1;
          lu1;
          x01;
          jmax;
          g_lu = gamma ((3 * n) + 40);
          g_mv = gamma (n + 8);
        }
      in
      ignore (Atomic.compare_and_set fs.bound None (Some g));
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
let rec abs_pat (pat : pat) (re : Cmat.plane) (im : Cmat.plane) off acc =
  match pat with
  | [] -> acc
  | (i, _) :: tl ->
      abs_pat tl re im off
        (acc
        +. Float.abs (Bigarray.Array1.unsafe_get re (off + i))
        +. Float.abs (Bigarray.Array1.unsafe_get im (off + i)))

(* Whether the bound B clears this point: B ≤ 1024ε(anorm·L + bnorm).
   ŵ is column [col] of the frequency's block. *)
let[@inline always] bound_clears fs (blk : block) ~col ~wre ~wim ~woff (u : pat) ~out_idx
    ~al_re ~al_im ~den_re ~den_im ~coef_re ~coef_im =
  let g = bound_of fs in
  let x0 = fs.x0 in
  let wnorm = Array.unsafe_get blk.wnorm col in
  let c1 = Float.abs coef_re +. Float.abs coef_im in
  let p = g.x01 +. (c1 *. wnorm) in
  let q =
    abs_pat u x0.Bvec.re x0.Bvec.im 0 0.0 +. (c1 *. abs_pat u wre wim woff 0.0)
  in
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
    match out_idx with
    | None -> lower
    | Some oi -> Float.max lower (xf_lower x0 ~wre ~wim ~woff ~coef_re ~coef_im oi)
  in
  let thr = 1024.0 *. epsilon_float *. ((anorm fs *. lower) +. fs.bnorm) in
  (bound *. (1.0 +. 0x1p-20)) +. 1e-250 <= thr
  && thr < Float.infinity
  && p < 1e300
  && g.a1 *. p < 1e300

(* {!Cmat.norm2}, the same operations written here: across the
   library boundary the call is not inlined, and an out-of-line call
   boxes both arguments and the result once per rank-1 point. *)
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

(* [guard] false skips the a-priori bound: {!guard_probe}'s reference
   run. The point's column is the one [blk] holds for its slot. *)
let smw_point_solve ~guard t fs (blk : block) ({ slot; u; alpha_g; alpha_c } : rank1) ~re
    ~im ~ok ~ix =
  let al_re = alpha_g and al_im = fs.omega *. alpha_c in
  if al_re = 0.0 && al_im = 0.0 then write_out t.out_idx fs.x0 ~re ~im ~ok ~ix
  else begin
    let col = blk.col_of.(slot) in
    let woff = col * t.n in
    let wre = Cmat.re_plane blk.cols and wim = Cmat.im_plane blk.cols in
    let vw_re = dot_pat u wre woff and vw_im = dot_pat u wim woff in
    let den_re = 1.0 +. ((al_re *. vw_re) -. (al_im *. vw_im))
    and den_im = (al_re *. vw_im) +. (al_im *. vw_re) in
    let chaotic, den_re, den_im =
      match Atomic.get chaos with
      | `None -> (false, den_re, den_im)
      | `Smw_denominator k -> (true, den_re *. k, den_im *. k)
    in
    if norm2 den_re den_im <= 1e-12 then
      full_point_solve t fs ~al_re ~al_im ~u ~re ~im ~ok ~ix
    else begin
      let vx0_re = dot_pat u fs.x0.Bvec.re 0 and vx0_im = dot_pat u fs.x0.Bvec.im 0 in
      let coef_re, coef_im =
        div2
          ((al_re *. vx0_re) -. (al_im *. vx0_im))
          ((al_re *. vx0_im) +. (al_im *. vx0_re))
          den_re den_im
      in
      if
        guard && (not chaotic)
        && bound_clears fs blk ~col ~wre ~wim ~woff u ~out_idx:t.out_idx ~al_re ~al_im
             ~den_re ~den_im ~coef_re ~coef_im
      then begin
        let p = pending () in
        p.p_smw <- p.p_smw + 1;
        p.p_cleared <- p.p_cleared + 1;
        (match t.out_idx with
        | None ->
            Array.unsafe_set re ix 0.0;
            Array.unsafe_set im ix 0.0
        | Some oi ->
            let open Bigarray in
            let wr = Array1.unsafe_get wre (woff + oi)
            and wi = Array1.unsafe_get wim (woff + oi) in
            let x0r = Array1.unsafe_get fs.x0.Bvec.re oi
            and x0i = Array1.unsafe_get fs.x0.Bvec.im oi in
            Array.unsafe_set re ix (xf_entry_re ~x0r ~wr ~wi ~coef_re ~coef_im);
            Array.unsafe_set im ix (xf_entry_im ~x0i ~wr ~wi ~coef_re ~coef_im));
        Bytes.unsafe_set ok ix '\001'
      end
      else begin
        let n = t.n in
        let s = scratch_for n in
        let xf = s.xf and resid = s.resid in
        let xf_re = xf.Bvec.re and xf_im = xf.Bvec.im in
        let x0re = fs.x0.Bvec.re and x0im = fs.x0.Bvec.im in
        let open Bigarray in
        for i = 0 to n - 1 do
          let wr = Array1.unsafe_get wre (woff + i) and wi = Array1.unsafe_get wim (woff + i) in
          Array1.unsafe_set xf_re i
            (xf_entry_re ~x0r:(Array1.unsafe_get x0re i) ~wr ~wi ~coef_re ~coef_im);
          Array1.unsafe_set xf_im i
            (xf_entry_im ~x0i:(Array1.unsafe_get x0im i) ~wr ~wi ~coef_re ~coef_im)
        done;
        (* Residual of the perturbed system without forming it:
           b − A_f xf = (b − α (vᵀxf) u) − A xf. The a-priori bound
           above clears most points before this. *)
        let faulty_residual () =
          let vxf_re = dot_pat u xf_re 0 and vxf_im = dot_pat u xf_im 0 in
          let av_re = (al_re *. vxf_re) -. (al_im *. vxf_im)
          and av_im = (al_re *. vxf_im) +. (al_im *. vxf_re) in
          mul_vec_into fs ~x:xf ~y:resid;
          let rre = resid.Bvec.re and rim = resid.Bvec.im in
          let bre = fs.b.Bvec.re and bim = fs.b.Bvec.im in
          for i = 0 to n - 1 do
            Array1.unsafe_set rre i (Array1.unsafe_get bre i -. Array1.unsafe_get rre i);
            Array1.unsafe_set rim i (Array1.unsafe_get bim i -. Array1.unsafe_get rim i)
          done;
          List.iter
            (fun (i, sg) ->
              Array1.set rre i (Array1.get rre i -. (sg *. av_re));
              Array1.set rim i (Array1.get rim i -. (sg *. av_im)))
            u
        in
        (* One step of iterative refinement: a large |α| (a catastrophic
           open/short is a ~10⁹-fold conductance change) amplifies
           rounding in the bare update; correcting by the SMW solve of
           the residual restores direct-solve accuracy at O(fill). The
           common case — a mild deviation whose bare update already sits
           near machine-precision residual (the 1024·ε gate below) —
           skips the extra back-solve; the a-priori bound has cleared
           most of those points before the residual was ever
           computed. *)
        let refine () =
          let d0 = s.d0 in
          Csparse.solve_into fs.num ~b:resid ~x:d0;
          let d0re = d0.Bvec.re and d0im = d0.Bvec.im in
          let vd_re = dot_pat u d0re 0 and vd_im = dot_pat u d0im 0 in
          let dc_re, dc_im =
            div2
              ((al_re *. vd_re) -. (al_im *. vd_im))
              ((al_re *. vd_im) +. (al_im *. vd_re))
              den_re den_im
          in
          for i = 0 to n - 1 do
            let wr = Array1.unsafe_get wre (woff + i) and wi = Array1.unsafe_get wim (woff + i) in
            Array1.unsafe_set xf_re i
              (Array1.unsafe_get xf_re i
              +. (Array1.unsafe_get d0re i -. ((dc_re *. wr) -. (dc_im *. wi))));
            Array1.unsafe_set xf_im i
              (Array1.unsafe_get xf_im i
              +. (Array1.unsafe_get d0im i -. ((dc_re *. wi) +. (dc_im *. wr))))
          done
        in
        if chaotic then begin
          let p = pending () in
          p.p_smw <- p.p_smw + 1;
          write_out t.out_idx xf ~re ~im ~ok ~ix
        end
        else begin
          (* The gate's scale reads x̂f, so it is recomputed only when a
             refinement step moved x̂f. *)
          let scale_of () = (anorm fs *. Bvec.norm_inf xf) +. fs.bnorm +. 1e-300 in
          faulty_residual ();
          let res = ref (Bvec.norm_inf resid) and scale = ref (scale_of ()) in
          if not (!res <= 1024.0 *. epsilon_float *. !scale) then begin
            let p = pending () in
            p.p_refine <- p.p_refine + 1;
            refine ();
            faulty_residual ();
            res := Bvec.norm_inf resid;
            scale := scale_of ()
          end;
          if !res <= smw_tolerance *. !scale then begin
            let p = pending () in
            p.p_smw <- p.p_smw + 1;
            write_out t.out_idx xf ~re ~im ~ok ~ix
          end
          else full_point_solve t fs ~al_re ~al_im ~u ~re ~im ~ok ~ix
        end
      end
    end
  end

(* ---- structural fallback: the plan holds the split-assembled
   stamps; each point assembles and factorizes in per-domain fallback
   workspaces ---- *)

let structural_point ~s_stamps ~s_n ~s_out fs ~re ~im ~ok ~ix =
  let s = fallback_ws (Domain.DLS.get scratch_key) s_n in
  Mna.Stamps.fill s_stamps ~omega:fs.omega s.sm;
  Mna.Stamps.rhs_into s_stamps ~omega:fs.omega s.sb;
  fallback_solve s ~b:s.sb ~out:s_out ~re ~im ~ok ~ix

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
    b.cols <- Cmat.create 1 b.cap
  end;
  if Array.length b.col_of < slots then b.col_of <- Array.make slots (-1);
  if Array.length b.slot_at < k then begin
    b.slot_at <- Array.make k 0;
    b.wnorm <- Array.make k 0.0
  end;
  b

(* Write the pattern's signs into column [c] of an n×k row-major plane,
   or zeros with [~clear]. *)
let rec stamp_pat (pat : pat) (plane : Cmat.plane) ~k ~c ~clear =
  match pat with
  | [] -> ()
  | (i, sg) :: tl ->
      Bigarray.Array1.unsafe_set plane ((i * k) + c) (if clear then 0.0 else sg);
      stamp_pat tl plane ~k ~c ~clear

(* The frequency's [k] columns, named by [blk.slot_at]: one block
   back-solve, bitwise equal to [k] single solves, then a transpose so
   that column [c] lies contiguously at offset [c·n] of [blk.cols],
   taking each column's norm on the way. *)
let solve_columns t fs blk ~k =
  let open Bigarray in
  let n = t.n in
  let rhs = Cmat.reshape blk.rhs ~rows:n ~cols:k
  and sol = Cmat.reshape blk.sol ~rows:n ~cols:k in
  let bre = Cmat.re_plane rhs in
  for c = 0 to k - 1 do
    stamp_pat t.slot_pats.(blk.slot_at.(c)) bre ~k ~c ~clear:false
  done;
  Csparse.solve_block_into fs.num ~work:(Cmat.reshape blk.work ~rows:n ~cols:k) ~b:rhs ~x:sol;
  for c = 0 to k - 1 do
    stamp_pat t.slot_pats.(blk.slot_at.(c)) bre ~k ~c ~clear:true;
    blk.wnorm.(c) <- 0.0
  done;
  let sre = Cmat.re_plane sol and sim = Cmat.im_plane sol in
  let cre = Cmat.re_plane blk.cols and cim = Cmat.im_plane blk.cols in
  for i = 0 to n - 1 do
    let ri = i * k in
    for c = 0 to k - 1 do
      let wr = Array1.unsafe_get sre (ri + c) and wi = Array1.unsafe_get sim (ri + c) in
      Array1.unsafe_set cre ((c * n) + i) wr;
      Array1.unsafe_set cim ((c * n) + i) wi;
      (* max over i of |ŵᵢ|₁, [nan] once an entry is *)
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
  let rows = Array.length plans and nf = Array.length t.freqs in
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
    let fs = t.freqs.(i) in
    let k = ref 0 and reads = ref 0 in
    for r = 0 to rows - 1 do
      if Bytes.unsafe_get skip.(r) i = '\000' then
        match plans.(r) with
        (* a point whose α(ω) is zero keeps the nominal and reads no column *)
        | P_rank1 r1 when not (r1.alpha_g = 0.0 && fs.omega *. r1.alpha_c = 0.0) ->
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
    if k > 0 then solve_columns t fs blk ~k;
    for r = 0 to rows - 1 do
      if Bytes.unsafe_get skip.(r) i = '\000' then
        let re = re.(r) and im = im.(r) and ok = ok.(r) in
        match plans.(r) with
        | P_unchanged -> write_out t.out_idx fs.x0 ~re ~im ~ok ~ix:i
        | P_rank1 r1 -> smw_point_solve ~guard t fs blk r1 ~re ~im ~ok ~ix:i
        | P_structural { s_stamps; s_n; s_out } ->
            structural_point ~s_stamps ~s_n ~s_out fs ~re ~im ~ok ~ix:i
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
  let nf = Array.length t.freqs in
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
   picks for A's own values. *)
let guard_probe ~a ~b ~u ~(alpha : Complex.t) ~out =
  let n = Cmat.rows a in
  let x0 = Bvec.create n in
  let are = Cmat.re_plane a and aim = Cmat.im_plane a in
  let stored =
    List.filter (fun k -> are.{k} <> 0.0 || aim.{k} <> 0.0) (List.init (n * n) Fun.id)
  in
  let spat = Csparse.pattern ~n (Array.of_list (List.map (fun k -> (k / n, k mod n)) stored)) in
  let sre = Csparse.plane (Csparse.nnz spat) and sim_ = Csparse.plane (Csparse.nnz spat) in
  List.iter
    (fun k ->
      let slot = Csparse.slot spat ~row:(k / n) ~col:(k mod n) in
      sre.{slot} <- are.{k};
      sim_.{slot} <- aim.{k})
    stored;
  let num = Csparse.numeric (Csparse.analyze spat ~re:sre ~im:sim_) ~store:Csparse.plane in
  Csparse.refactor num ~re:sre ~im:sim_;
  Csparse.solve_into num ~b ~x:x0;
  let fs =
    {
      omega = 1.0;
      spat;
      sre;
      sim_;
      num;
      anorm = Atomic.make Float.nan;
      b;
      bnorm = Bvec.norm_inf b;
      x0;
      bound = Atomic.make None;
    }
  in
  let nominal = [| Bvec.get x0 out |] in
  let t =
    {
      netlist = Netlist.empty ~title:"guard probe" ();
      source = "";
      output = "";
      out_idx = Some out;
      n;
      freqs = [| fs |];
      nominal;
      slot_of = Hashtbl.create 1;
      slot_pats = [| u |];
      analysis = None;
      lease = None;
    }
  in
  let r1 = { slot = 0; u; alpha_g = alpha.Complex.re; alpha_c = alpha.Complex.im } in
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
