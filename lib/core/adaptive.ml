module Grid = Testability.Grid
module Detect = Testability.Detect
module Matrix = Testability.Matrix
module Netlist = Circuit.Netlist

type stats = {
  rows : int;
  points : int;
  solved : int;
  skipped : int;
  bisections : int;
}

let default_stride = 8
let default_guard = 12.0

module Refine = struct
  type outcome = {
    verdicts : Bytes.t;
    solved : int list;
    bisections : int;
  }

  let row ~nf ~stride ~step_dec ~guard ~steer_range ~anchor ~solve =
    if nf <= 0 then invalid_arg "Adaptive.Refine.row: empty grid";
    if stride <= 0 then invalid_arg "Adaptive.Refine.row: stride must be positive";
    if not (step_dec >= 0.0) then
      invalid_arg "Adaptive.Refine.row: step_dec must be non-negative";
    if not (guard >= 0.0) then
      invalid_arg "Adaptive.Refine.row: guard must be non-negative";
    let v = Bytes.init nf anchor in
    Bytes.iter
      (fun b ->
        if b <> 'd' && b <> 'u' && b <> '?' then
          invalid_arg "Adaptive.Refine.row: anchor byte outside 'd'/'u'/'?'")
      v;
    let margins = Array.make nf Float.nan in
    let solved = ref [] in
    let bisections = ref 0 in
    let do_solve i =
      let b, m = solve i in
      if b <> 'd' && b <> 'u' then
        invalid_arg "Adaptive.Refine.row: solve returned a byte outside 'd'/'u'";
      Bytes.set v i b;
      margins.(i) <- m;
      solved := i :: !solved
    in
    (* Coarse pass: every [stride]-th point plus the final one, so
       every eventual '?' run is bracketed by known anchors. Static
       anchors are free and are never re-solved. *)
    for i = 0 to nf - 1 do
      if Bytes.get v i = '?' && (i mod stride = 0 || i = nf - 1) then do_solve i
    done;
    (* Refinement between adjacent known points. Disagreeing endpoint
       verdicts are bisected down to adjacency unconditionally — the
       crossing is known to be inside. Agreeing endpoints may still
       hide a narrow crossing (a resonance spike or a deviation-zero
       dip poking through the threshold between samples), so the
       interval is skipped only when the margin slope bound rules one
       out: under |ds/dx| ≤ guard nepers/decade, a crossing at any
       interior point x is within width·step of {e both} endpoints, so
       it forces |s| ≤ guard·width·step (+ the known profile movement)
       at each of them, and an interval whose {e weaker} endpoint
       margin beats that budget cannot hide one. Only the weaker
       endpoint counts: a fat margin may come from sitting next to a
       deviation zero (where log dev moves arbitrarily fast in both
       directions) and must never subsidize the other end.
       [steer_range lo hi] is the exactly-known variation of the
       margin's static profile inside the interval (threshold and
       nominal-magnitude movement — see
       {!Testability.Detect.steer_range}): near a notch the
       profile swings by decades, forcing refinement no matter how
       comfortable the endpoint margins look. A static anchor carries
       no margin and contributes zero — the guard then refines toward
       it, never past it. *)
    let margin_of k =
      (* [nan] marks a point that carries no margin information — a
         static anchor (never solved), a failed solve, or a degenerate
         point whose caller withheld trust. It anchors a verdict but
         says nothing about its neighbourhood. *)
      let m = margins.(k) in
      if Float.is_nan m then 0.0 else Float.abs m
    in
    let rec refine lo hi =
      if hi - lo > 1 then begin
        let flip = Bytes.get v lo <> Bytes.get v hi in
        let safe =
          (not flip)
          && Float.min (margin_of lo) (margin_of hi)
             > (guard *. step_dec *. float_of_int (hi - lo))
               +. steer_range lo hi
        in
        if not safe then begin
          let mid = (lo + hi) / 2 in
          do_solve mid;
          incr bisections;
          refine lo mid;
          refine mid hi
        end
      end
    in
    let prev = ref (-1) in
    for i = 0 to nf - 1 do
      if Bytes.get v i <> '?' then begin
        if !prev >= 0 then refine !prev i;
        prev := i
      end
    done;
    (* Fill: each remaining '?' run is bracketed by anchors whose
       verdicts agree (a disagreement would have been bisected down to
       adjacency), so the interior inherits the shared verdict. *)
    let p = ref 0 in
    while !p < nf do
      if Bytes.get v !p <> '?' then incr p
      else begin
        let q = ref !p in
        while !q < nf && Bytes.get v !q = '?' do
          incr q
        done;
        let b = Bytes.get v (!p - 1) in
        assert (!q < nf && Bytes.get v !q = b);
        Bytes.fill v !p (!q - !p) b;
        p := !q
      end
    done;
    { verdicts = v; solved = List.rev !solved; bisections = !bisections }
end

(* Order-of-magnitude cost of one view task, in ns; it only feeds the
   scheduler's sequential cutoff and chunk sizing. The element count
   stands in for the MNA dimension d, which is unknown until the engine
   is built. Per frequency: one factorization (d³); per envelope drift,
   a block back-solve column and a rank-1 solve (~5d²); per fault, a
   rank-1 solve — two O(d²) passes plus its column's back-solve —
   at roughly a third of the points (~2d²). *)
let view_ns ~nf ~faults ~sweeps netlist =
  let d = float_of_int (List.length (Netlist.elements netlist)) in
  let drifts = sweeps *. float_of_int (List.length (Netlist.passives netlist)) in
  float_of_int nf *. d *. d *. (d +. (5.0 *. drifts) +. (2.0 *. float_of_int faults))

let build ?criterion ?(jobs = 1) ?(stride = default_stride) grid views faults =
  Obs.Trace.span "adaptive.build" @@ fun () ->
  if stride <= 0 then invalid_arg "Adaptive.build: stride must be positive";
  let views = Array.of_list views in
  let faults = Array.of_list faults in
  let n = Array.length views and m = Array.length faults in
  let nf = Grid.n_points grid in
  (* Uniform log grid: one step in decades, the unit of the margin
     slope bound. A single-point grid refines nothing, so 0 is fine. *)
  let step_dec =
    if nf <= 1 then 0.0
    else
      let f = Grid.freqs_hz grid in
      Float.abs (log10 (f.(nf - 1) /. f.(0))) /. float_of_int (nf - 1)
  in
  (* Phases 1–2 — one task per view, streamed: prepare the view on
     storage recycled through the campaign's pool ({!Detect.with_view}:
     structural anchors, engine, envelope thresholds — a dead view
     builds nothing), plan its faults, refine every (view × fault) row,
     keep the verdict bytes and per-row tallies, and release the engine
     to the pool. At most [jobs] engines are live at once, work-stealing
     balances views whose cost differs, and the pool's storage is
     dropped with the campaign. A row's refinement is inherently
     sequential (each bisection depends on the verdicts before it).
     Fault columns are solved on first read, so the points refinement
     skips cost no back-solve. Counters are booked sequentially in
     phase 3. *)
  let pool = Testability.Fastsim.pool () in
  let verdict_rows = Array.make_matrix n m Bytes.empty in
  let row_solved = Array.make_matrix n m 0 in
  let row_bisections = Array.make_matrix n m 0 in
  let view_isolated = Array.make n 0 in
  let view_dead = Array.make n false in
  let est_ns =
    let sweeps =
      float_of_int
        (List.length
           (Detect.drift_tolerances
              (Option.value criterion ~default:Detect.default_criterion)))
    in
    Util.Floatx.fold_range n ~init:0.0 ~f:(fun acc i ->
        acc +. view_ns ~nf ~faults:m ~sweeps views.(i).Matrix.netlist)
  in
  Util.Parallel.for_ ~jobs ~est_ns n (fun i ->
      let view = views.(i) in
      (* The preparation — and only it — is the "adaptive.prepare" span;
         scoring runs directly under adaptive.build. *)
      Obs.Trace.begin_ ("adaptive.prepare " ^ view.Matrix.label);
      let preparing = ref true in
      let end_prepare () =
        if !preparing then begin
          preparing := false;
          Obs.Trace.end_ ()
        end
      in
      Fun.protect ~finally:end_prepare @@ fun () ->
      Detect.with_view ~pool ?criterion view.Matrix.probe grid view.Matrix.netlist
      @@ fun pv ->
      let plans = Array.map (Detect.plan_fault pv) faults in
      end_prepare ();
      view_dead.(i) <- Detect.view_dead pv;
      view_isolated.(i) <-
        Array.fold_left (fun a p -> if Detect.plan_isolated p then a + 1 else a) 0 plans;
      Array.iteri
        (fun j plan ->
          (* {!Detect.anchor} gives the points undetectable by definition
             — below the view's measurement floor, a whole dead view, a
             whole isolated fault's row — as static 'u' anchors, known
             without solving. They carry no margin, so refinement stops
             at them rather than skipping past; a dead view's and an
             isolated fault's rows cost zero solves, at every stride. *)
          let o =
            Refine.row ~nf ~stride ~step_dec ~guard:default_guard
              ~steer_range:(Detect.steer_range pv)
              ~anchor:(Detect.anchor pv plan) ~solve:(Detect.score_point pv plan)
          in
          verdict_rows.(i).(j) <- o.Refine.verdicts;
          row_solved.(i).(j) <- List.length o.Refine.solved;
          row_bisections.(i).(j) <- o.Refine.bisections)
        plans);
  (* Phase 3 — sequential reduce and counter booking, in row order:
     the matrix and the adaptive.* / campaign.* totals are
     jobs-deterministic. *)
  let detect = Array.make_matrix n m false in
  let omega = Array.make_matrix n m 0.0 in
  let solved = ref 0 and bisections = ref 0 in
  Obs.Trace.span "adaptive.reduce" (fun () ->
      for i = 0 to n - 1 do
        for j = 0 to m - 1 do
          let r = Detect.result_of_verdicts grid faults.(j) verdict_rows.(i).(j) in
          detect.(i).(j) <- r.Detect.detectable;
          omega.(i).(j) <- r.Detect.omega_det;
          solved := !solved + row_solved.(i).(j);
          bisections := !bisections + row_bisections.(i).(j)
        done
      done);
  let points = n * m * nf in
  let skipped = points - !solved in
  if skipped > 0 then Obs.Metrics.incr ~by:skipped "adaptive.solves_skipped";
  if !bisections > 0 then Obs.Metrics.incr ~by:!bisections "adaptive.bisections";
  let isolated_rows = Array.fold_left ( + ) 0 view_isolated in
  let dead_views = Array.fold_left (fun acc d -> if d then acc + 1 else acc) 0 view_dead in
  if isolated_rows > 0 then
    Obs.Metrics.incr ~by:isolated_rows "campaign.isolated_rows";
  if dead_views > 0 then Obs.Metrics.incr ~by:dead_views "campaign.dead_views";
  ( { Matrix.views; faults; detect; omega },
    { rows = n * m; points; solved = !solved; skipped; bisections = !bisections } )
