module IntSet = Cover.Clause.IntSet

type measurement = { config : int; freq_hz : float }

type t = {
  measurements : measurement list;
  covered : int;
  total_coverable : int;
  witnesses : (Fault.t * measurement) list;
}

(* Candidate encoding: measurement (config position c, grid point k)
   becomes integer c * n_points + k, where c indexes into the chosen
   configuration list. Whether a measurement catches a fault is read
   from the campaign's verdict rows; nothing is simulated here. *)
let build_with ~distinguish ~configs (pipeline : Pipeline.t) =
  let grid = pipeline.Pipeline.grid in
  let n_points = Testability.Grid.n_points grid in
  let freqs = Testability.Grid.freqs_hz grid in
  let matrix = pipeline.Pipeline.matrix in
  let configs = Array.of_list configs in
  Array.iter
    (fun c ->
      if c < 0 || c >= Testability.Matrix.n_views matrix then
        invalid_arg (Printf.sprintf "Test_plan: no test configuration C%d" c))
    configs;
  let catches m j =
    Testability.Matrix.detectable_at matrix configs.(m / n_points) j (m mod n_points)
  in
  let n_candidates = Array.length configs * n_points in
  let candidates p = IntSet.of_list (List.filter p (List.init n_candidates Fun.id)) in
  let faults = Array.of_list pipeline.Pipeline.faults in
  let n_faults = Array.length faults in
  (* clause per coverable fault: the measurements that catch it *)
  let detection =
    List.filter
      (fun s -> not (IntSet.is_empty s))
      (List.init n_faults (fun j -> candidates (fun m -> catches m j)))
  in
  (* diagnosis mode: additionally, for every separable fault pair, at
     least one separating measurement must be scheduled *)
  let separation =
    if not distinguish then []
    else
      List.concat_map
        (fun j1 ->
          List.filter_map
            (fun j2 ->
              let s = candidates (fun m -> catches m j1 <> catches m j2) in
              if IntSet.is_empty s then None else Some s)
            (List.init (n_faults - j1 - 1) (fun d -> j1 + 1 + d)))
        (List.init n_faults Fun.id)
  in
  let problem = Cover.Clause.of_sets ~n_candidates (detection @ separation) in
  (* feasible by construction: only non-empty candidate sets are queued;
     the schedule is sorted by configuration, then frequency *)
  let chosen =
    List.sort
      (fun a b ->
        compare (configs.(a / n_points), a mod n_points) (configs.(b / n_points), b mod n_points))
      (IntSet.elements (Cover.Solver.cover_exn (Cover.Solver.exact problem)))
  in
  let decode m = { config = configs.(m / n_points); freq_hz = freqs.(m mod n_points) } in
  (* witness: the first scheduled measurement catching each fault *)
  let witnesses =
    List.filter_map
      (fun j ->
        Option.map
          (fun m -> (faults.(j), decode m))
          (List.find_opt (fun m -> catches m j) chosen))
      (List.init n_faults Fun.id)
  in
  {
    measurements = List.map decode chosen;
    covered = List.length witnesses;
    total_coverable = List.length detection;
    witnesses;
  }

let build ?configs pipeline =
  let configs =
    match configs with
    | Some c -> c
    | None -> (Pipeline.optimize pipeline).Optimizer.choice_a.Optimizer.configs
  in
  build_with ~distinguish:false ~configs pipeline

let build_diagnostic ?configs (pipeline : Pipeline.t) =
  let configs =
    match configs with
    | Some c -> c
    | None ->
        List.map Multiconfig.Configuration.index
          (Multiconfig.Transform.test_configurations pipeline.Pipeline.dft)
  in
  build_with ~distinguish:true ~configs pipeline

let to_string plan =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "test plan: %d measurements cover %d/%d coverable faults\n"
       (List.length plan.measurements) plan.covered plan.total_coverable);
  List.iter
    (fun m ->
      Buffer.add_string buf (Printf.sprintf "  C%d @ %8.1f Hz\n" m.config m.freq_hz))
    plan.measurements;
  Buffer.add_string buf "fault witnesses:\n";
  List.iter
    (fun (fault, m) ->
      Buffer.add_string buf
        (Printf.sprintf "  %-10s -> C%d @ %.1f Hz\n" fault.Fault.id m.config m.freq_hz))
    plan.witnesses;
  Buffer.contents buf
