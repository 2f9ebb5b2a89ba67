module Detect = Testability.Detect
module Matrix = Testability.Matrix
module Grid = Testability.Grid
module Pipeline = Mcdft_core.Pipeline
module Adaptive = Mcdft_core.Adaptive

type t = {
  grid : Grid.t;
  views : Matrix.view list;
  faults : Fault.t array;
  nominal_mag : float array;
  signatures : float array array;
  tolerance : float;
}

let n_measurements t = Array.length t.nominal_mag
let faults t = Array.to_list t.faults
let signature t j = Array.copy t.signatures.(j)

(* Fault j's recorded deviation rows over views [rows] of [m],
   view-major. *)
let trajectory (m : Matrix.t) rows j =
  Array.concat (List.map (fun i -> m.Matrix.deviations.(i).(j)) rows)

(* The dictionary over views [rows] of a campaign's matrix: every
   trajectory is the campaign's own record, nothing is simulated. *)
let of_matrix ~tolerance grid (m : Matrix.t) rows =
  let faults = m.Matrix.faults in
  Obs.Metrics.incr "diagnosis.trajectories_built" ~by:(Array.length faults);
  {
    grid;
    views = List.map (fun i -> m.Matrix.views.(i)) rows;
    faults;
    nominal_mag = Array.concat (List.map (fun i -> m.Matrix.nominal.(i)) rows);
    signatures = Array.mapi (fun j _ -> trajectory m rows j) faults;
    tolerance;
  }

(* The deviation rows do not depend on the criterion, and the fixed one
   builds no envelope. *)
let campaign grid views faults =
  fst (Adaptive.build ~criterion:Detect.default_criterion grid views faults)

let check ~tolerance ~n_views =
  if tolerance < 0.0 then invalid_arg "Trajectory.build: tolerance must be >= 0";
  if n_views = 0 then invalid_arg "Trajectory.build: no views"

let build ?(tolerance = 0.02) grid views faults =
  Obs.Trace.span "diagnosis.build" @@ fun () ->
  check ~tolerance ~n_views:(List.length views);
  of_matrix ~tolerance grid
    (campaign grid views faults)
    (List.init (List.length views) Fun.id)

let of_pipeline ?(tolerance = 0.02) ?configs (p : Pipeline.t) =
  Obs.Trace.span "diagnosis.build" @@ fun () ->
  let n_views = Matrix.n_views p.Pipeline.matrix in
  let rows =
    match configs with
    | None -> List.init n_views Fun.id
    | Some cs ->
        List.iter
          (fun c ->
            if c < 0 || c >= n_views then
              invalid_arg
                (Printf.sprintf "Trajectory.of_pipeline: no test configuration C%d" c))
          cs;
        cs
  in
  check ~tolerance ~n_views:(List.length rows);
  of_matrix ~tolerance p.Pipeline.grid p.Pipeline.matrix rows

let simulate t fault =
  Obs.Trace.span "diagnosis.simulate" @@ fun () ->
  let m = campaign t.grid t.views [ fault ] in
  trajectory m (List.init (List.length t.views) Fun.id) 0

let nominal_magnitudes t = Array.copy t.nominal_mag

let deviations_of_magnitudes t mags =
  if Array.length mags <> n_measurements t then
    invalid_arg
      (Printf.sprintf
         "Trajectory.deviations_of_magnitudes: expected %d measurements, got %d"
         (n_measurements t) (Array.length mags));
  Array.mapi
    (fun i m ->
      let nominal = t.nominal_mag.(i) in
      if nominal = 0.0 then 0.0 else Detect.signed_deviation ~nominal m)
    mags

(* RMS distance between two deviation trajectories. *)
let distance a b =
  let n = Array.length a in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    let d = a.(i) -. b.(i) in
    acc := !acc +. (d *. d)
  done;
  sqrt (!acc /. float_of_int (Int.max 1 n))

type verdict = {
  fault : Fault.t;
  distance : float;
  margin : float;
  confidence : float;
  ambiguous : Fault.t list;
  ranking : (Fault.t * float) list;
}

let classify ?tolerance t observed =
  Obs.Trace.span "diagnosis.classify" @@ fun () ->
  if Array.length observed <> n_measurements t then
    invalid_arg
      (Printf.sprintf "Trajectory.classify: expected %d measurements, got %d"
         (n_measurements t) (Array.length observed));
  if Array.length t.faults = 0 then invalid_arg "Trajectory.classify: no faults";
  let tol = Option.value tolerance ~default:t.tolerance in
  let ranking =
    Array.to_list (Array.mapi (fun j s -> (t.faults.(j), distance s observed)) t.signatures)
    |> List.stable_sort (fun (_, a) (_, b) -> Float.compare a b)
  in
  Obs.Metrics.incr "diagnosis.classifications";
  match ranking with
  | [] -> assert false
  | (fault, d0) :: rest ->
      let ambiguous =
        fault :: List.filter_map (fun (f, d) -> if d <= d0 +. tol then Some f else None) rest
      in
      let margin, confidence =
        match rest with
        | [] -> (infinity, 1.0)
        | (_, d1) :: _ ->
            (d1 -. d0, Float.max 0.0 (Float.min 1.0 ((d1 -. d0) /. (d1 +. d0 +. 1e-12))))
      in
      { fault; distance = d0; margin; confidence; ambiguous; ranking }

let ambiguity_sets ?tolerance t =
  let tol = Option.value tolerance ~default:t.tolerance in
  let n = Array.length t.faults in
  let parent = Array.init n Fun.id in
  let rec find i = if parent.(i) = i then i else (let r = find parent.(i) in parent.(i) <- r; r) in
  let union i j =
    let ri = find i and rj = find j in
    if ri <> rj then parent.(Int.max ri rj) <- Int.min ri rj
  in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if distance t.signatures.(i) t.signatures.(j) <= tol then union i j
    done
  done;
  let groups = Hashtbl.create 16 in
  let roots = ref [] in
  for i = 0 to n - 1 do
    let r = find i in
    match Hashtbl.find_opt groups r with
    | None ->
        Hashtbl.add groups r [ i ];
        roots := r :: !roots
    | Some members -> Hashtbl.replace groups r (i :: members)
  done;
  List.rev_map
    (fun r -> List.rev_map (fun j -> t.faults.(j)) (Hashtbl.find groups r))
    !roots

let resolution ?tolerance t =
  match ambiguity_sets ?tolerance t with
  | [] -> 0.0
  | groups ->
      let singletons =
        List.fold_left (fun acc g -> if List.length g = 1 then acc + 1 else acc) 0 groups
      in
      float_of_int singletons /. float_of_int (Array.length t.faults)
