module Pipeline = Mcdft_core.Pipeline

type dictionary = {
  configs : int list;
  freqs_hz : float array;
  faults : Fault.t array;
  signatures : bool array array;
}

let probe_of (pipeline : Pipeline.t) =
  {
    Testability.Detect.source = pipeline.Pipeline.benchmark.Circuits.Benchmark.source;
    output = pipeline.Pipeline.benchmark.Circuits.Benchmark.output;
  }

let fault_signature ~grid results_per_config =
  let freqs = Testability.Grid.freqs_hz grid in
  let n_points = Array.length freqs in
  let bits = Array.make (List.length results_per_config * n_points) false in
  List.iteri
    (fun c (r : Testability.Detect.result) ->
      for k = 0 to n_points - 1 do
        bits.((c * n_points) + k) <-
          Util.Interval.Set.contains r.Testability.Detect.regions (log10 freqs.(k))
      done)
    results_per_config;
  bits

let build ?configs (pipeline : Pipeline.t) =
  let configs =
    match configs with
    | Some c -> c
    | None ->
        List.map Multiconfig.Configuration.index
          (Multiconfig.Transform.test_configurations pipeline.Pipeline.dft)
  in
  let grid = pipeline.Pipeline.grid in
  let probe = probe_of pipeline in
  let per_config =
    List.map
      (fun config_index ->
        let config =
          Multiconfig.Configuration.make
            ~n_opamps:(Multiconfig.Transform.n_opamps pipeline.Pipeline.dft)
            config_index
        in
        let view = Multiconfig.Transform.emulate pipeline.Pipeline.dft config in
        Testability.Detect.analyze ~criterion:pipeline.Pipeline.criterion probe grid view
          pipeline.Pipeline.faults)
      configs
  in
  let faults = Array.of_list pipeline.Pipeline.faults in
  let signatures =
    Array.mapi
      (fun j _ -> fault_signature ~grid (List.map (fun results -> List.nth results j) per_config))
      faults
  in
  { configs; freqs_hz = Testability.Grid.freqs_hz grid; faults; signatures }

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

let hamming a b =
  let d = ref 0 in
  Array.iteri (fun i x -> if x <> b.(i) then incr d) a;
  !d

let diagnose dict observed =
  let expected_len =
    List.length dict.configs * Array.length dict.freqs_hz
  in
  if Array.length observed <> expected_len then
    invalid_arg "Diagnosis.Dictionary.diagnose: signature length mismatch";
  Array.to_list
    (Array.mapi (fun j signature -> (dict.faults.(j), hamming observed signature)) dict.signatures)
  |> List.sort (fun (_, a) (_, b) -> Int.compare a b)

let signature_of (pipeline : Pipeline.t) dict fault =
  let grid = pipeline.Pipeline.grid in
  let probe = probe_of pipeline in
  let per_config =
    List.map
      (fun config_index ->
        let config =
          Multiconfig.Configuration.make
            ~n_opamps:(Multiconfig.Transform.n_opamps pipeline.Pipeline.dft)
            config_index
        in
        let view = Multiconfig.Transform.emulate pipeline.Pipeline.dft config in
        List.hd
          (Testability.Detect.analyze ~criterion:pipeline.Pipeline.criterion probe grid
             view [ fault ]))
      dict.configs
  in
  fault_signature ~grid per_config
