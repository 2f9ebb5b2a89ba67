module Grid = Testability.Grid
module Detect = Testability.Detect
module Matrix = Testability.Matrix
module Netlist = Circuit.Netlist

type stats = { points : int; solved : int; bisections : int }

let campaign ?criterion ?(jobs = 1) grid views faults =
  Obs.Trace.span "adaptive.build" @@ fun () ->
  let views = Array.of_list views in
  let structures = Array.map snd views and views = Array.map fst views in
  let faults = Array.of_list faults in
  let n = Array.length views and m = Array.length faults in
  let nf = Grid.n_points grid in
  (* Phases 1–2 — one task per view, streamed: prepare the view on
     storage recycled through the campaign's pool ({!Detect.with_view}:
     structural anchors, the engine on the view's output cone, envelope
     thresholds — a dead view builds nothing), plan its faults, score
     every (view × fault) row with one engine call
     ({!Detect.score_row}), keep the verdict bytes, deviation rows and
     per-row solve counts, and release the engine to the pool. Every
     workspace of the pool is sized for the campaign's largest engine,
     so at most [jobs] are ever allocated; the shared cursor balances
     views whose cost differs, and the pool's storage is dropped with the
     campaign. Counters are booked sequentially in phase 3. *)
  let pool =
    Testability.Fastsim.pool
      ~dim:(Array.fold_left (fun a s -> Int.max a (Detect.engine_dim s)) 0 structures)
  in
  let verdict_rows = Array.make_matrix n m Bytes.empty in
  (* Every masked row records zeros: rows that solve nothing share one
     all-zero array. *)
  let deviation_rows = Array.make_matrix n m (Array.make nf 0.0) in
  let view_nominal = Array.make n [||] in
  let row_solved = Array.make_matrix n m 0 in
  let view_isolated = Array.make n 0 in
  let view_dead = Array.make n false in
  let view_fallback = Array.make n false in
  Util.Parallel.for_ ~jobs n (fun i ->
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
      Detect.with_view ~pool ?criterion view.Matrix.probe grid structures.(i)
      @@ fun pv ->
      let plans = Array.map (Detect.plan_fault pv) faults in
      end_prepare ();
      view_dead.(i) <- Detect.view_dead pv;
      view_nominal.(i) <- Detect.measured_nominal pv;
      view_fallback.(i) <- Detect.view_fallback pv;
      view_isolated.(i) <-
        Array.fold_left (fun a p -> if Detect.plan_isolated p then a + 1 else a) 0 plans;
      Array.iteri
        (fun j plan ->
          let v, deviations, solved = Detect.score_row pv plan in
          verdict_rows.(i).(j) <- v;
          if solved > 0 then deviation_rows.(i).(j) <- deviations;
          row_solved.(i).(j) <- solved)
        plans);
  (* Phase 3 — sequential reduce and counter booking, in row order:
     the matrix and the campaign.* totals are jobs-deterministic. The
     verdict and deviation rows stay in the matrix as its per-point
     records. *)
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
  let fallbacks = Array.fold_left (fun acc f -> if f then acc + 1 else acc) 0 view_fallback in
  if fallbacks > 0 then Obs.Metrics.incr ~by:fallbacks "campaign.cone_fallbacks";
  ( {
      Matrix.views;
      faults;
      detect;
      omega;
      verdicts = verdict_rows;
      deviations = deviation_rows;
      nominal = view_nominal;
    },
    { points = n * m * nf; solved = !solved; bisections = 0 } )

let build ?criterion ?jobs grid views faults =
  campaign ?criterion ?jobs grid
    (List.map
       (fun (v : Matrix.view) ->
         (v, Detect.structure ~faults v.Matrix.probe v.Matrix.netlist))
       views)
    faults
