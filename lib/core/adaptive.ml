module Grid = Testability.Grid
module Detect = Testability.Detect
module Matrix = Testability.Matrix
module Netlist = Circuit.Netlist

type stats = { points : int; solved : int; bisections : int }

(* Order-of-magnitude cost of one view task, in ns; it only feeds the
   scheduler's sequential cutoff and chunk sizing. The element count
   stands in for the MNA dimension d, which is unknown until the engine
   is built. Per frequency: one factorization (d³); per envelope drift,
   a block back-solve column and a rank-1 solve (~5d²); per fault, a
   rank-1 solve at every point the measurement floor leaves open — its
   column's back-solve plus, where the a-priori bound does not clear
   the point, the O(d²) residual (~2d²). The floor is unknown before
   the nominal sweep, so every point is charged. *)
let view_ns ~nf ~faults ~sweeps netlist =
  let d = float_of_int (List.length (Netlist.elements netlist)) in
  let drifts = sweeps *. float_of_int (List.length (Netlist.passives netlist)) in
  float_of_int nf *. d *. d *. (d +. (5.0 *. drifts) +. (2.0 *. float_of_int faults))

let build ?criterion ?(jobs = 1) grid views faults =
  Obs.Trace.span "adaptive.build" @@ fun () ->
  let views = Array.of_list views in
  let faults = Array.of_list faults in
  let n = Array.length views and m = Array.length faults in
  let nf = Grid.n_points grid in
  (* Phases 1–2 — one task per view, streamed: prepare the view on
     storage recycled through the campaign's pool ({!Detect.with_view}:
     structural anchors, engine, envelope thresholds — a dead view
     builds nothing), plan its faults, decide every point of every
     (view × fault) row, keep the verdict bytes and per-row solve
     counts, and release the engine to the pool. At most [jobs] engines
     are live at once, work-stealing balances views whose cost differs,
     and the pool's storage is dropped with the campaign. Counters are
     booked sequentially in phase 3. *)
  let pool = Testability.Fastsim.pool () in
  let verdict_rows = Array.make_matrix n m Bytes.empty in
  let row_solved = Array.make_matrix n m 0 in
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
          (* {!Detect.anchor} decides the points undetectable by
             definition — below the view's measurement floor, a whole
             dead view, a whole isolated fault's row — without a solve;
             {!Detect.score_point} solves and decides every other. *)
          let solved = ref 0 in
          verdict_rows.(i).(j) <-
            Bytes.init nf (fun k ->
                match Detect.anchor pv plan k with
                | '?' ->
                    incr solved;
                    Detect.score_point pv plan k
                | b -> b);
          row_solved.(i).(j) <- !solved)
        plans);
  (* Phase 3 — sequential reduce and counter booking, in row order:
     the matrix and the campaign.* totals are jobs-deterministic. *)
  let detect = Array.make_matrix n m false in
  let omega = Array.make_matrix n m 0.0 in
  let solved = ref 0 in
  Obs.Trace.span "adaptive.reduce" (fun () ->
      for i = 0 to n - 1 do
        for j = 0 to m - 1 do
          let r = Detect.result_of_verdicts grid faults.(j) verdict_rows.(i).(j) in
          detect.(i).(j) <- r.Detect.detectable;
          omega.(i).(j) <- r.Detect.omega_det;
          solved := !solved + row_solved.(i).(j)
        done
      done);
  let isolated_rows = Array.fold_left ( + ) 0 view_isolated in
  let dead_views = Array.fold_left (fun acc d -> if d then acc + 1 else acc) 0 view_dead in
  if isolated_rows > 0 then
    Obs.Metrics.incr ~by:isolated_rows "campaign.isolated_rows";
  if dead_views > 0 then Obs.Metrics.incr ~by:dead_views "campaign.dead_views";
  ( { Matrix.views; faults; detect; omega },
    { points = n * m * nf; solved = !solved; bisections = 0 } )
