module Pipeline = Mcdft_core.Pipeline

type dictionary = {
  configs : int list;
  freqs_hz : float array;
  faults : Fault.t array;
  signatures : bool array array;
}

(* Fault j's pass/fail pattern over the given views of [m], view-major. *)
let signature (m : Testability.Matrix.t) ~n_points views j =
  Array.concat
    (List.map
       (fun i -> Array.init n_points (fun k -> Testability.Matrix.detectable_at m i j k))
       views)

let build ?configs (pipeline : Pipeline.t) =
  let configs =
    match configs with
    | Some c -> c
    | None ->
        List.map Multiconfig.Configuration.index
          (Multiconfig.Transform.test_configurations pipeline.Pipeline.dft)
  in
  let matrix = pipeline.Pipeline.matrix in
  List.iter
    (fun c ->
      if c < 0 || c >= Testability.Matrix.n_views matrix then
        invalid_arg
          (Printf.sprintf "Diagnosis.Dictionary.build: no test configuration C%d" c))
    configs;
  let n_points = Testability.Grid.n_points pipeline.Pipeline.grid in
  let faults = Array.of_list pipeline.Pipeline.faults in
  {
    configs;
    freqs_hz = Testability.Grid.freqs_hz pipeline.Pipeline.grid;
    faults;
    signatures = Array.mapi (fun j _ -> signature matrix ~n_points configs j) faults;
  }

let ambiguity_groups dict =
  let table = Hashtbl.create 16 in
  let order = ref [] in
  Array.iteri
    (fun j signature ->
      let key = Array.to_list signature in
      (match Hashtbl.find_opt table key with
      | None ->
          Hashtbl.add table key [ j ];
          order := key :: !order
      | Some members -> Hashtbl.replace table key (j :: members)))
    dict.signatures;
  List.rev_map
    (fun key -> List.rev_map (fun j -> dict.faults.(j)) (Hashtbl.find table key))
    !order

let is_detected signature = Array.exists Fun.id signature

let resolution dict =
  let detected =
    Array.to_list dict.signatures |> List.filter is_detected
  in
  match detected with
  | [] -> 0.0
  | _ ->
      let table = Hashtbl.create 16 in
      List.iter
        (fun signature ->
          let key = Array.to_list signature in
          Hashtbl.replace table key (1 + Option.value ~default:0 (Hashtbl.find_opt table key)))
        detected;
      let singletons = Hashtbl.fold (fun _ n acc -> if n = 1 then acc + 1 else acc) table 0 in
      float_of_int singletons /. float_of_int (List.length detected)

let signature_of (pipeline : Pipeline.t) dict fault =
  let views =
    List.map (fun c -> pipeline.Pipeline.matrix.Testability.Matrix.views.(c)) dict.configs
  in
  let m, _ =
    Mcdft_core.Adaptive.build ~criterion:pipeline.Pipeline.criterion pipeline.Pipeline.grid
      views [ fault ]
  in
  signature m
    ~n_points:(Testability.Grid.n_points pipeline.Pipeline.grid)
    (List.init (List.length views) Fun.id)
    0
