module Detect = Testability.Detect
module Matrix = Testability.Matrix
module Fastsim = Testability.Fastsim
module Grid = Testability.Grid
module Pipeline = Mcdft_core.Pipeline

type t = {
  labels : string array;
  freqs_hz : float array;
  faults : Fault.t array;
  engines : Fastsim.t array;
  nominal_mag : float array array;
  signatures : float array array;
  tolerance : float;
}

(* A singular faulty system has no finite response; clamp its deviation
   to a large constant so the point stays comparable (and maximally
   distinct from any healthy trajectory). *)
let singular_deviation = 1e3
let magnitude_floor = 1e-12

let n_measurements t = Array.length t.labels * Array.length t.freqs_hz
let faults t = Array.to_list t.faults
let labels t = Array.to_list t.labels
let signature t j = Array.copy t.signatures.(j)

let signature_into ~engines ~nominal_mag ~nf fault out =
  Array.iteri
    (fun vi e ->
      let plan = Fastsim.plan_of e fault in
      let re = Array.make nf 0.0 and im = Array.make nf 0.0 in
      let ok = Bytes.make nf '\000' in
      Fastsim.response_into e plan ~skip:(Bytes.make nf '\000') ~re ~im ~ok;
      for k = 0 to nf - 1 do
        let nom = nominal_mag.(vi).(k) in
        let dev =
          if Bytes.get ok k = '\001' then
            (Float.hypot re.(k) im.(k) -. nom) /. Float.max nom magnitude_floor
          else singular_deviation
        in
        out.((vi * nf) + k) <- dev
      done)
    engines

let build ?(tolerance = 0.02) grid views faults =
  Obs.Trace.span "diagnosis.build" @@ fun () ->
  if tolerance < 0.0 then invalid_arg "Trajectory.build: tolerance must be >= 0";
  let views = Array.of_list views in
  if Array.length views = 0 then invalid_arg "Trajectory.build: no views";
  let faults = Array.of_list faults in
  let freqs_hz = Grid.freqs_hz grid in
  let nf = Array.length freqs_hz in
  let engines =
    Array.map
      (fun v ->
        Fastsim.create ~source:v.Matrix.probe.Detect.source
          ~output:v.Matrix.probe.Detect.output ~freqs_hz v.Matrix.netlist)
      views
  in
  (* Every trajectory reads its fault's column at every frequency, so
     one block back-solve per frequency fills each engine's cache up
     front. A shortcut only: an engine solves a missing column on
     first read. *)
  let fault_list = Array.to_list faults in
  Array.iter (fun e -> Fastsim.warm_cache e fault_list) engines;
  let nominal_mag = Array.map (fun e -> Array.map Complex.norm (Fastsim.nominal e)) engines in
  let nv = Array.length views in
  let signatures =
    Array.map
      (fun f ->
        let s = Array.make (nv * nf) 0.0 in
        signature_into ~engines ~nominal_mag ~nf f s;
        s)
      faults
  in
  Obs.Metrics.incr "diagnosis.trajectories_built" ~by:(Array.length faults);
  {
    labels = Array.map (fun v -> v.Matrix.label) views;
    freqs_hz;
    faults;
    engines;
    nominal_mag;
    signatures;
    tolerance;
  }

let of_pipeline ?tolerance ?configs (p : Pipeline.t) =
  let all_views = p.Pipeline.matrix.Matrix.views in
  let views =
    match configs with
    | None -> Array.to_list all_views
    | Some cs ->
        List.map
          (fun c ->
            if c < 0 || c >= Array.length all_views then
              invalid_arg
                (Printf.sprintf "Trajectory.of_pipeline: no test configuration C%d" c);
            all_views.(c))
          cs
  in
  build ?tolerance p.Pipeline.grid views p.Pipeline.faults

let simulate t fault =
  Obs.Trace.span "diagnosis.simulate" @@ fun () ->
  let nf = Array.length t.freqs_hz in
  let s = Array.make (n_measurements t) 0.0 in
  signature_into ~engines:t.engines ~nominal_mag:t.nominal_mag ~nf fault s;
  s

let nominal_magnitudes t =
  let nf = Array.length t.freqs_hz in
  Array.init (n_measurements t) (fun i -> t.nominal_mag.(i / nf).(i mod nf))

let deviations_of_magnitudes t mags =
  if Array.length mags <> n_measurements t then
    invalid_arg
      (Printf.sprintf
         "Trajectory.deviations_of_magnitudes: expected %d measurements, got %d"
         (n_measurements t) (Array.length mags));
  let nf = Array.length t.freqs_hz in
  Array.mapi
    (fun i m ->
      let nom = t.nominal_mag.(i / nf).(i mod nf) in
      (m -. nom) /. Float.max nom magnitude_floor)
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
