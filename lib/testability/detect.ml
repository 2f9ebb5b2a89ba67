module Netlist = Circuit.Netlist
module Element = Circuit.Element

type probe = { source : string; output : string }

type criterion =
  | Fixed_tolerance of float
  | Process_envelope of { component_tol : float; floor : float }
  | Phase_fixed of float
  | Phase_envelope of { component_tol : float; floor_rad : float }
  | Any_of of criterion list

type result = {
  fault : Fault.t;
  detectable : bool;
  omega_det : float;
  regions : Util.Interval.Set.t;
}

let default_tolerance = 0.10
let default_criterion = Fixed_tolerance default_tolerance

let magnitude_dev t0 tf =
  let m0 = Complex.norm t0 and mf = Complex.norm tf in
  if m0 = 0.0 then if mf = 0.0 then 0.0 else infinity
  else Float.abs (mf -. m0) /. m0

let phase_dev t0 tf =
  if Complex.norm t0 = 0.0 || Complex.norm tf = 0.0 then 0.0
  else begin
    let d = Float.abs (Complex.arg tf -. Complex.arg t0) in
    if d > Float.pi then (2.0 *. Float.pi) -. d else d
  end

let response_deviation ~nominal ~faulty =
  if Array.length nominal <> Array.length faulty then
    invalid_arg "Detect.response_deviation: length mismatch";
  Array.map2 magnitude_dev nominal faulty

let phase_deviation ~nominal ~faulty =
  if Array.length nominal <> Array.length faulty then
    invalid_arg "Detect.phase_deviation: length mismatch";
  Array.map2 phase_dev nominal faulty

let nominal_response probe grid netlist =
  Mna.Ac.sweep ~source:probe.source ~output:probe.output netlist
    ~freqs_hz:(Grid.freqs_hz grid)

let make_sim ?backend probe grid netlist =
  Fastsim.create ?backend ~source:probe.source ~output:probe.output
    ~freqs_hz:(Grid.freqs_hz grid) netlist

(* One instantiated sub-criterion: which deviation to measure and the
   per-frequency threshold it must exceed. [steer] is the statically
   known part of the point margin's log — everything in
   log(deviation/threshold) that does not involve the faulty response:
   −log threshold, plus −log |H₀| for the magnitude deviations (which
   normalize by the nominal). The adaptive campaign driver subtracts
   it to bound how fast margins can move between grid points; it never
   affects a verdict. *)
type prepared_one = {
  deviation : Complex.t -> Complex.t -> float;
  thresholds : float array;
  steer : float array;
}

(* Envelope accumulation over the per-component process drifts. Each
   drift is a single-passive deviation — exactly a rank-1 fault for
   the campaign engine, so the whole envelope costs one back-solve per
   (passive, frequency) instead of a full sweep per passive. Only the
   drifts of passives that can reach the output are summed: the others
   move the output by exactly zero in exact arithmetic (a structural
   fact, {!Circuit.Influence}), so their computed contribution is pure
   round-off. A grid point where a drifted good circuit has no
   solution mirrors the naive path's Singular_circuit. *)
let envelope_thresholds ~deviation ~floor ~respond ~drifting grid netlist
    ~nominal ~component_tol =
  let envelope = Array.make (Grid.n_points grid) floor in
  List.iter
    (fun element ->
      let response = respond (Fault.deviation ~element (1.0 +. component_tol)) in
      Array.iteri
        (fun i tf ->
          match tf with
          | Some tf -> envelope.(i) <- envelope.(i) +. deviation nominal.(i) tf
          | None ->
              raise
                (Mna.Ac.Singular_circuit
                   (Printf.sprintf "MNA matrix singular at f = %g Hz for %S"
                      (Grid.freqs_hz grid).(i) (Netlist.title netlist))))
        response)
    drifting;
  envelope

(* The measurement floor: a grid point whose nominal response magnitude
   sits below it has no usable reference — the relative deviation there
   is a ratio of floating-point residues (a dead view output, the
   bottom of a notch), and any verdict computed from it is numerical
   noise, not testability. Such points are undetectable by definition:
   every criterion's threshold is clamped to +∞ there and the
   failed-solve escape hatch is bypassed, so the verdict is a
   deterministic 'u' in every scoring path. The floor is relative to
   the view's own response scale, with an absolute backstop for views
   that are dead across the whole band. *)
let measurement_floor nominal =
  let mmax =
    Array.fold_left (fun a c -> Float.max a (Complex.norm c)) 0.0 nominal
  in
  Float.max (1e-12 *. mmax) 1e-13

let measurement_mask nominal =
  let floor_abs = measurement_floor nominal in
  Bytes.init (Array.length nominal) (fun k ->
      if Complex.norm nominal.(k) < floor_abs then '\001' else '\000')

(* Structural anchors: one {!Circuit.Influence} fixpoint per view says
   which passives can move the output and whether the stimulus reaches
   it at all. Both facts hold in exact arithmetic whatever the element
   values, so they extend the measurement floor's definition:
   - a {e dead} view (the source cannot reach the output) has a nominal
     response of exactly zero — every point is below the floor, however
     large its floating-point residue happens to be;
   - a fault on an {e isolated} passive (one that cannot affect the
     output) moves the output by exactly zero — its row is undetectable
     by definition and is never solved. *)
module StringSet = Set.Make (String)

type structure = {
  netlist : Netlist.t;
  drifting : string list;  (* passives that can affect the output *)
  isolated : StringSet.t;  (* passives that cannot *)
  dead : bool;  (* the source cannot reach the output *)
}

let structure_of probe netlist =
  let influence = Circuit.Influence.analyse ~output:probe.output netlist in
  let drifting, isolated =
    List.partition
      (Circuit.Influence.can_affect_output influence)
      (List.map Element.name (Netlist.passives netlist))
  in
  {
    netlist;
    drifting;
    isolated = StringSet.of_list isolated;
    dead =
      Netlist.mem netlist probe.source
      && not (Circuit.Influence.drives_output influence probe.source);
  }

let isolated structure (fault : Fault.t) =
  StringSet.mem fault.Fault.element structure.isolated

let rec drift_tolerances = function
  | Process_envelope { component_tol; _ } | Phase_envelope { component_tol; _ } ->
      [ component_tol ]
  | Any_of criteria -> List.concat_map drift_tolerances criteria
  | Fixed_tolerance _ | Phase_fixed _ -> []

let rec prepare_raw ~respond ~drifting criterion grid netlist ~nominal =
  let magnitude_steer thresholds =
    Array.mapi
      (fun i thr -> -.(log thr +. log (Complex.norm nominal.(i))))
      thresholds
  in
  let phase_steer thresholds = Array.map (fun thr -> -.log thr) thresholds in
  match criterion with
  | Fixed_tolerance eps ->
      let thresholds = Array.make (Grid.n_points grid) eps in
      [
        { deviation = magnitude_dev; thresholds;
          steer = magnitude_steer thresholds };
      ]
  | Phase_fixed rad ->
      let thresholds = Array.make (Grid.n_points grid) rad in
      [ { deviation = phase_dev; thresholds; steer = phase_steer thresholds } ]
  | Process_envelope { component_tol; floor } ->
      let thresholds =
        envelope_thresholds ~deviation:magnitude_dev ~floor ~respond ~drifting
          grid netlist ~nominal ~component_tol
      in
      [
        { deviation = magnitude_dev; thresholds;
          steer = magnitude_steer thresholds };
      ]
  | Phase_envelope { component_tol; floor_rad } ->
      let thresholds =
        envelope_thresholds ~deviation:phase_dev ~floor:floor_rad ~respond
          ~drifting grid netlist ~nominal ~component_tol
      in
      [ { deviation = phase_dev; thresholds; steer = phase_steer thresholds } ]
  | Any_of criteria ->
      List.concat_map
        (fun c -> prepare_raw ~respond ~drifting c grid netlist ~nominal)
        criteria

(* A criterion instantiated for one view: the sub-criteria, the view's
   structure and its measurement mask — the numeric floor, or every
   point of a dead view. *)
type prepared = {
  subs : prepared_one list;
  structure : structure;
  mask : Bytes.t;
}

let prepare_with ~respond ~structure criterion grid ~nominal =
  (* A dead view builds no envelope: every threshold is clamped below. *)
  let drifting = if structure.dead then [] else structure.drifting in
  let subs =
    prepare_raw ~respond ~drifting criterion grid structure.netlist ~nominal
  in
  let mask =
    if structure.dead then Bytes.make (Array.length nominal) '\001'
    else measurement_mask nominal
  in
  List.iter
    (fun p ->
      Bytes.iteri
        (fun k b ->
          if b = '\001' then begin
            p.thresholds.(k) <- infinity;
            p.steer.(k) <- neg_infinity
          end)
        mask)
    subs;
  { subs; structure; mask }

let prepare ?backend criterion probe grid netlist ~nominal =
  (* Lazy: criteria without an envelope never pay for the engine. *)
  let sim = lazy (make_sim ?backend probe grid netlist) in
  let respond fault = Fastsim.response (Lazy.force sim) fault in
  prepare_with ~respond ~structure:(structure_of probe netlist) criterion grid
    ~nominal

let exceeds subs t0 tf i =
  List.exists (fun p -> p.deviation t0 tf > p.thresholds.(i)) subs

let result_of_regions grid fault intervals =
  let regions = Util.Interval.Set.of_intervals intervals in
  let measure = Util.Interval.Set.measure regions in
  let omega_det = measure /. Grid.log_measure grid in
  { fault; detectable = not (Util.Interval.Set.is_empty regions); omega_det; regions }

(* [respond] is only called when some point can be detectable: an
   isolated fault's row and a dead view's rows are all-'u' by
   definition and cost no solve. An unknown element still raises like
   the engine. *)
let result_of ~nominal ~prepared grid fault respond =
  let structure = prepared.structure in
  if not (Netlist.mem structure.netlist fault.Fault.element) then
    raise (Fault.Unknown_element fault.Fault.element);
  let intervals = ref [] in
  if not (structure.dead || isolated structure fault) then begin
    let faulty = respond fault in
    for i = 0 to Grid.n_points grid - 1 do
      (* Below the measurement floor there is no verdict to salvage
         from a failed solve either — the point is undetectable by
         definition. *)
      let deviates =
        Bytes.get prepared.mask i = '\000'
        &&
        match faulty.(i) with
        | None -> true
        | Some tf -> exceeds prepared.subs nominal.(i) tf i
      in
      if deviates then intervals := Grid.point_interval grid i :: !intervals
    done
  end;
  result_of_regions grid fault !intervals

(* A dead view's nominal response is exactly zero at every point. *)
let dead_nominal grid = Array.make (Grid.n_points grid) Complex.zero

let analyze_fault ?backend ?(criterion = default_criterion) ?nominal ?prepared probe
    grid netlist fault =
  let sim = lazy (make_sim ?backend probe grid netlist) in
  let respond f = Fastsim.response (Lazy.force sim) f in
  let structure =
    match prepared with Some p -> p.structure | None -> structure_of probe netlist
  in
  let nominal =
    match nominal with
    | Some n -> n
    | None ->
        if structure.dead then dead_nominal grid else Fastsim.nominal (Lazy.force sim)
  in
  let prepared =
    match prepared with
    | Some p -> p
    | None -> prepare_with ~respond ~structure criterion grid ~nominal
  in
  result_of ~nominal ~prepared grid fault respond

(* A fully-prepared view: engine, nominal response and instantiated
   thresholds with the view's structure, ready to score any number of
   faults, from any number of domains — the engine solves each
   back-solve column on first use. A dead view has no engine: its rows
   are all 'u' by definition, so nothing is ever solved on it. *)
type prepared_view = {
  sim : Fastsim.t option;
  nominal : Complex.t array;
  prepared : prepared;
}

(* The rest of a view's preparation once its engine exists. *)
let live_view ~criterion ~structure grid sim =
  let nominal = Fastsim.nominal sim in
  (* The envelope reads every drift at every frequency, so its columns
     come from one multi-RHS block back-solve per frequency instead of
     column by column; a deviation fault on a drifting passive later
     reads the same column. Faults are not warmed: adaptive scoring
     reads a small share of their columns, each solved on first use. *)
  (match
     List.concat_map
       (fun tol ->
         List.map
           (fun element -> Fault.deviation ~element (1.0 +. tol))
           structure.drifting)
       (drift_tolerances criterion)
   with
  | [] -> ()
  | drifts -> Fastsim.warm_cache sim drifts);
  let prepared =
    prepare_with ~respond:(Fastsim.response sim) ~structure criterion grid ~nominal
  in
  { sim = Some sim; nominal; prepared }

(* Deadness is decided from the structure alone, before any engine
   exists: a dead view builds no engine, runs no nominal sweep and
   builds no envelope. *)
let dead_view ~criterion ~structure grid =
  let nominal = dead_nominal grid in
  let prepared =
    prepare_with
      ~respond:(fun _ -> invalid_arg "Detect: a dead view builds no envelope")
      ~structure criterion grid ~nominal
  in
  { sim = None; nominal; prepared }

let prepare_view ?backend ?(criterion = default_criterion) probe grid netlist =
  (* One engine for the whole view: the fault-free factors are built
     once per frequency and shared by the envelope preparation and by
     every fault's rank-1 solve. *)
  let structure = structure_of probe netlist in
  if structure.dead then dead_view ~criterion ~structure grid
  else live_view ~criterion ~structure grid (make_sim ?backend probe grid netlist)

let with_view ~pool ?backend ?(criterion = default_criterion) probe grid netlist f =
  let structure = structure_of probe netlist in
  if structure.dead then f (dead_view ~criterion ~structure grid)
  else
    Fastsim.with_engine ~pool ?backend ~source:probe.source ~output:probe.output
      ~freqs_hz:(Grid.freqs_hz grid) netlist (fun sim ->
        f (live_view ~criterion ~structure grid sim))

(* The view's engine; only live rows reach it. *)
let engine pv =
  match pv.sim with
  | Some sim -> sim
  | None -> invalid_arg "Detect: a dead view has no engine"

let analyze_prepared pv grid fault =
  result_of ~nominal:pv.nominal ~prepared:pv.prepared grid fault (fun f ->
      Fastsim.response (engine pv) f)

(* ---- point scoring (the campaign matrix path) ----

   The campaign driver (Mcdft_core.Adaptive) builds one plan per
   (view, fault), fills individual grid slots of planar response rows
   and turns each filled slot into a verdict byte; the bytes reduce
   through {!result_of_verdicts}. The arithmetic is exactly
   {!analyze_prepared}'s — same solver, same deviation/threshold
   comparisons, same structural anchors — just restructured so workers
   never box per-point responses. *)

(* [Dead]: a fault of a dead view on a passive that is not isolated. *)
type plan = Isolated | Dead | Live of Fastsim.plan

let view_uses_sparse pv = Option.fold ~none:false ~some:Fastsim.uses_sparse pv.sim
let view_dead pv = pv.prepared.structure.dead

let plan_fault pv fault =
  let structure = pv.prepared.structure in
  if not (Netlist.mem structure.netlist fault.Fault.element) then
    raise (Fault.Unknown_element fault.Fault.element);
  if isolated structure fault then Isolated
  else match pv.sim with None -> Dead | Some sim -> Live (Fastsim.plan_of sim fault)

let plan_isolated = function Isolated -> true | Dead | Live _ -> false

let score_range pv plan ~lo ~hi ~re ~im ~ok =
  match plan with
  | Live p -> Fastsim.response_range_into (engine pv) p ~lo ~hi ~re ~im ~ok
  | Isolated | Dead ->
      (* the fault cannot move the output: its response is the nominal *)
      for k = lo to hi - 1 do
        re.(k) <- pv.nominal.(k).Complex.re;
        im.(k) <- pv.nominal.(k).Complex.im;
        Bytes.set ok k '\001'
      done

let point_verdict pv plan ~re ~im ~ok i =
  match plan with
  | Isolated -> false
  | Dead | Live _ ->
      if Bytes.get pv.prepared.mask i = '\001' then false
      else if Bytes.get ok i = '\000' then true
      else
        exceeds pv.prepared.subs pv.nominal.(i)
          { Complex.re = re.(i); im = im.(i) }
          i

let steering_profiles pv = List.map (fun p -> p.steer) pv.prepared.subs
let view_measurement_mask pv = pv.prepared.mask

let point_margin pv plan ~re ~im ~ok i =
  if plan_isolated plan || Bytes.get pv.prepared.mask i = '\001' then
    Float.neg_infinity
  else if Bytes.get ok i = '\000' then Float.nan
  else
    let tf = { Complex.re = re.(i); im = im.(i) } in
    let ratio =
      List.fold_left
        (fun acc p ->
          let dev = p.deviation pv.nominal.(i) tf in
          let thr = p.thresholds.(i) in
          let r =
            if thr > 0.0 then dev /. thr
            else if dev > 0.0 then infinity
            else 1.0
          in
          Float.max acc r)
        0.0 pv.prepared.subs
    in
    log ratio

let result_of_verdicts grid fault verdicts =
  if Bytes.length verdicts <> Grid.n_points grid then
    invalid_arg "Detect.result_of_verdicts: verdict length mismatch";
  if Bytes.exists (fun b -> b = '?') verdicts then
    invalid_arg "Detect.result_of_verdicts: undecided point";
  let intervals = ref [] in
  for i = 0 to Grid.n_points grid - 1 do
    if Bytes.get verdicts i = 'd' then
      intervals := Grid.point_interval grid i :: !intervals
  done;
  result_of_regions grid fault !intervals

let analyze ?backend ?criterion probe grid netlist faults =
  let pv = prepare_view ?backend ?criterion probe grid netlist in
  List.map (fun fault -> analyze_prepared pv grid fault) faults

let minimal_detectable_deviation ?backend ?(criterion = default_criterion)
    ?(max_factor = 10.0) probe grid netlist ~element =
  if max_factor <= 1.0 then
    invalid_arg "Detect.minimal_detectable_deviation: max_factor must exceed 1";
  let pv = prepare_view ?backend ~criterion probe grid netlist in
  let detectable factor =
    (analyze_prepared pv grid (Fault.deviation ~element factor)).detectable
  in
  if not (detectable max_factor) then None
  else begin
    (* bisect on log(factor) in (0, log max_factor] *)
    let lo = ref 0.0 and hi = ref (log max_factor) in
    for _ = 1 to 20 do
      let mid = (!lo +. !hi) /. 2.0 in
      if detectable (exp mid) then hi := mid else lo := mid
    done;
    Some (exp !hi)
  end

let fault_coverage results =
  match results with
  | [] -> 0.0
  | _ ->
      let detected = List.length (List.filter (fun r -> r.detectable) results) in
      float_of_int detected /. float_of_int (List.length results)

let average_omega_det results =
  match results with
  | [] -> 0.0
  | _ ->
      List.fold_left (fun acc r -> acc +. r.omega_det) 0.0 results
      /. float_of_int (List.length results)
