module Grid = Testability.Grid
module Detect = Testability.Detect
module Matrix = Testability.Matrix
module Netlist = Circuit.Netlist
module Names = Hashtbl.Make (String)

type stats = {
  points : int;
  solved : int;
  bisections : int;
  classes : int list list;
}

(* Cone classes (see the interface), streamed: each view's structure
   is built and keyed in turn, and only the first member of a class
   keeps its structure, so a member's stamp run dies young. The key of
   a live view is its engine system's signature with every faulted
   element's rows locked, under the view's own source mode — what makes
   the replication exact rather than heuristic — plus its probe and
   passive layout, all read from the structure's one stamp run
   ({!Detect.class_key}). Classes list their members ascending, in the
   order of their first members, with those members' structures. *)
let cone_classes structure faults views =
  let locked = Names.create 64 in
  List.iter (fun f -> Names.replace locked f.Fault.element ()) faults;
  let classes = Names.create 16 in
  let order = ref [] in
  Array.iteri
    (fun i view ->
      let s = structure view in
      let key = Detect.class_key ~locked:(Names.mem locked) s in
      match Names.find_opt classes key with
      | Some members -> members := i :: !members
      | None ->
          let members = ref [ i ] in
          Names.add classes key members;
          order := (members, s) :: !order)
    views;
  let order = List.rev !order in
  ( Array.of_list (List.map snd order),
    List.map (fun (members, _) -> List.rev !members) order )

(* The campaign over the class representatives [views]. *)
let simulate ?criterion ~jobs grid views structures faults =
  let n = Array.length views and m = Array.length faults in
  let nf = Grid.n_points grid in
  (* Phases 1–2 — one task per view, streamed: prepare the view on
     storage recycled through the campaign's pool ({!Detect.with_view}:
     structural anchors, the engine on the view's output cone — a dead
     view builds nothing), plan its faults, score every (view × fault)
     row and the envelope's drifts in one engine sweep
     ({!Detect.score_rows}), keep the verdict bytes, deviation rows and
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
        (fun j (v, deviations, solved) ->
          verdict_rows.(i).(j) <- v;
          if solved > 0 then deviation_rows.(i).(j) <- deviations;
          row_solved.(i).(j) <- solved)
        (Detect.score_rows pv plans));
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
    !solved )

let build ?criterion ?(jobs = 1) ?(prune = true) grid views faults =
  Obs.Trace.span "adaptive.build" @@ fun () ->
  let views = Array.of_list views in
  let n_views = Array.length views in
  (* The cone classes (one per view unpruned) and their representatives'
     structures. The span keeps its old name: the campaign benchmark
     reads it. A fault absent from any view raises here, whether or not
     its class simulates it. *)
  let structures, classes =
    Obs.Trace.span "pipeline.prune" @@ fun () ->
    let check (v : Matrix.view) (f : Fault.t) =
      if not (Netlist.mem v.Matrix.netlist f.Fault.element) then
        raise (Fault.Unknown_element f.Fault.element)
    in
    Array.iter (fun v -> List.iter (check v) faults) views;
    let structure (v : Matrix.view) =
      Detect.structure ~faults v.Matrix.probe v.Matrix.netlist
    in
    if prune then cone_classes structure faults views
    else (Array.map structure views, List.init n_views (fun i -> [ i ]))
  in
  let n_classes = List.length classes in
  Obs.Metrics.incr "campaign.equivalence_groups" ~by:n_classes;
  if n_views > n_classes then
    Obs.Metrics.incr "campaign.pruned_configs" ~by:(n_views - n_classes);
  let reps = Array.of_list (List.map List.hd classes) in
  let faults = Array.of_list faults in
  let rep, solved =
    simulate ?criterion ~jobs grid (Array.map (fun i -> views.(i)) reps) structures faults
  in
  (* Row i is its representative's: the matrix is indistinguishable from
     an unpruned build. The verdict bytes, deviation rows and nominal
     rows are shared, never mutated. *)
  let class_of = Array.make n_views 0 in
  List.iteri (fun c members -> List.iter (fun i -> class_of.(i) <- c) members) classes;
  let expand rows = Array.map (fun c -> Array.copy rows.(c)) class_of in
  ( {
      Matrix.views;
      faults;
      detect = expand rep.Matrix.detect;
      omega = expand rep.Matrix.omega;
      verdicts = expand rep.Matrix.verdicts;
      deviations = expand rep.Matrix.deviations;
      nominal = Array.map (fun c -> rep.Matrix.nominal.(c)) class_of;
    },
    {
      points = n_classes * Array.length faults * Grid.n_points grid;
      solved;
      bisections = 0;
      classes;
    } )
