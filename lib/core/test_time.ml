let settle_taus = 7.0
let measure_periods = 5.0
let switch_overhead_s = 1e-3
let fallback_settle_s = 10e-3

(* Settling time of one emulated configuration, from its slowest
   stable pole. *)
let settle_time_s (pipeline : Pipeline.t) config_index =
  let dft = pipeline.Pipeline.dft in
  let config =
    Multiconfig.Configuration.make ~n_opamps:(Multiconfig.Transform.n_opamps dft)
      config_index
  in
  let view = Multiconfig.Transform.emulate dft config in
  match
    Mna.Symbolic.poles ~source:dft.Multiconfig.Transform.source
      ~output:dft.Multiconfig.Transform.output view
  with
  | exception Mna.Symbolic.Singular_circuit _ -> fallback_settle_s
  | poles ->
      (* slowest stable pole bounds the settling; a configuration with
         no strictly stable pole gets the fallback *)
      let slowest =
        Array.fold_left
          (fun acc p ->
            if p.Complex.re < -1e-6 then Float.min acc (-.p.Complex.re) else acc)
          infinity poles
      in
      if Float.is_finite slowest then settle_taus /. slowest
      else fallback_settle_s

(* Total estimated test time of a measurement schedule, in seconds. *)
let estimate_s (pipeline : Pipeline.t) (plan : Test_plan.t) =
  let by_config = Hashtbl.create 8 in
  List.iter
    (fun m ->
      let existing =
        Option.value ~default:[] (Hashtbl.find_opt by_config m.Test_plan.config)
      in
      Hashtbl.replace by_config m.Test_plan.config (m.Test_plan.freq_hz :: existing))
    plan.Test_plan.measurements;
  let configs = Hashtbl.fold (fun c _ acc -> c :: acc) by_config [] in
  (* visit configurations in a switching-optimized (Gray-like) order;
     each flipped selection bit costs one switch overhead *)
  let ordered = Multiconfig.Sequence.order (List.sort Int.compare configs) in
  let rec walk prev total = function
    | [] -> total
    | config :: rest ->
        let bits =
          let x = prev lxor config in
          let rec pop n acc = if n = 0 then acc else pop (n lsr 1) (acc + (n land 1)) in
          pop x 0
        in
        let settle = settle_time_s pipeline config in
        let freqs = Hashtbl.find by_config config in
        let measures =
          List.fold_left (fun t f -> t +. (measure_periods /. f)) 0.0 freqs
        in
        walk config
          (total +. (float_of_int bits *. switch_overhead_s) +. settle +. measures)
          rest
  in
  walk 0 0.0 ordered

let compare_sets (pipeline : Pipeline.t) candidate_sets =
  let scored =
    List.map
      (fun configs ->
        let plan = Test_plan.build ~configs pipeline in
        (configs, estimate_s pipeline plan))
      candidate_sets
  in
  List.sort (fun (_, a) (_, b) -> Float.compare a b) scored
