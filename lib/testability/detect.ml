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

(* The two deviation measures of a faulty response [re + j·im] against
   the nominal [t0]. The faulty response comes in planar parts so the
   campaign's point scorer never boxes it; [Float.hypot] and [atan2]
   are exactly [Complex.norm] and [Complex.arg]. *)
type measure = Magnitude | Phase

let[@inline] deviation measure (t0 : Complex.t) re im =
  let m0 = Float.hypot t0.re t0.im and mf = Float.hypot re im in
  match measure with
  | Magnitude ->
      if m0 = 0.0 then if mf = 0.0 then 0.0 else infinity
      else Float.abs (mf -. m0) /. m0
  | Phase ->
      if m0 = 0.0 || mf = 0.0 then 0.0
      else begin
        let d = Float.abs (atan2 im re -. atan2 t0.im t0.re) in
        if d > Float.pi then (2.0 *. Float.pi) -. d else d
      end

let deviation_of measure t0 (tf : Complex.t) = deviation measure t0 tf.re tf.im

let response_deviation ~nominal ~faulty =
  if Array.length nominal <> Array.length faulty then
    invalid_arg "Detect.response_deviation: length mismatch";
  Array.map2 (deviation_of Magnitude) nominal faulty

let phase_deviation ~nominal ~faulty =
  if Array.length nominal <> Array.length faulty then
    invalid_arg "Detect.phase_deviation: length mismatch";
  Array.map2 (deviation_of Phase) nominal faulty

let nominal_response probe grid netlist =
  Mna.Ac.sweep ~source:probe.source ~output:probe.output netlist
    ~freqs_hz:(Grid.freqs_hz grid)

(* One instantiated sub-criterion: which deviation to measure and the
   per-frequency threshold it must exceed. *)
type prepared_one = { measure : measure; thresholds : float array }

(* Envelope accumulation over the per-component process drifts. Each
   drift is a single-passive deviation — exactly a rank-1 fault for
   the campaign engine, so the whole envelope costs one back-solve per
   (passive, frequency) instead of a full sweep per passive. Only the
   drifts of passives that can reach the output are summed: the others
   move the output by exactly zero in exact arithmetic (a structural
   fact, {!Circuit.Influence}), so their computed contribution is pure
   round-off. A grid point where a drifted good circuit has no
   solution mirrors the naive path's Singular_circuit. *)
let envelope_thresholds ~measure ~floor ~respond ~drifting grid netlist
    ~nominal ~component_tol =
  let envelope = Array.make (Grid.n_points grid) floor in
  List.iter
    (fun element ->
      let response = respond (Fault.deviation ~element (1.0 +. component_tol)) in
      Array.iteri
        (fun i tf ->
          match tf with
          | Some tf ->
              envelope.(i) <- envelope.(i) +. deviation_of measure nominal.(i) tf
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
   noise, not testability. Such points are undetectable by definition,
   failed solves included, so the verdict is a deterministic 'u' in
   every scoring path. The floor is relative to the view's own response
   scale, with an absolute backstop for views that are dead across the
   whole band. *)
let measurement_mask nominal =
  let mmax =
    Array.fold_left (fun a c -> Float.max a (Complex.norm c)) 0.0 nominal
  in
  let floor_abs = Float.max (1e-12 *. mmax) 1e-13 in
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
  let one measure thresholds = [ { measure; thresholds } ] in
  let envelope measure ~floor ~component_tol =
    envelope_thresholds ~measure ~floor ~respond ~drifting grid netlist ~nominal
      ~component_tol
  in
  match criterion with
  | Fixed_tolerance eps -> one Magnitude (Array.make (Grid.n_points grid) eps)
  | Phase_fixed rad -> one Phase (Array.make (Grid.n_points grid) rad)
  | Process_envelope { component_tol; floor } ->
      one Magnitude (envelope Magnitude ~floor ~component_tol)
  | Phase_envelope { component_tol; floor_rad } ->
      one Phase (envelope Phase ~floor:floor_rad ~component_tol)
  | Any_of criteria ->
      List.concat_map
        (fun c -> prepare_raw ~respond ~drifting c grid netlist ~nominal)
        criteria

(* A fully-prepared view: engine, nominal response, the instantiated
   sub-criteria, the view's structure and its measurement mask — the
   numeric floor, or every point of a dead view — ready to score any
   number of faults, from any number of domains: the engine solves each
   back-solve column on first use. A dead view has no engine: its rows
   are all 'u' by definition, so nothing is ever solved on it. *)
type prepared_view = {
  sim : Fastsim.t option;
  nominal : Complex.t array;
  subs : prepared_one array;
  structure : structure;
  mask : Bytes.t;
}

let view_of ~respond ~structure ~sim criterion grid ~nominal =
  (* A dead view builds no envelope: every point is masked. *)
  let drifting = if structure.dead then [] else structure.drifting in
  let subs =
    Array.of_list
      (prepare_raw ~respond ~drifting criterion grid structure.netlist ~nominal)
  in
  let mask =
    if structure.dead then Bytes.make (Array.length nominal) '\001'
    else measurement_mask nominal
  in
  { sim; nominal; subs; structure; mask }

(* The rest of a view's preparation once its engine exists. *)
let live_view ~criterion ~structure grid sim =
  let nominal = Fastsim.nominal sim in
  (* The envelope reads every drift at every frequency, so its columns
     come from one multi-RHS block back-solve per frequency instead of
     column by column; a deviation fault on a drifting passive later
     reads the same column. Faults are not warmed: each of their
     columns is solved the first time a point of the row reads it. *)
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
  view_of ~respond:(Fastsim.response sim) ~structure ~sim:(Some sim) criterion grid
    ~nominal

(* Deadness is decided from the structure alone, before any engine
   exists: a dead view builds no engine, runs no nominal sweep and
   builds no envelope. Its nominal response is exactly zero. *)
let dead_view ~criterion ~structure grid =
  view_of
    ~respond:(fun _ -> invalid_arg "Detect: a dead view builds no envelope")
    ~structure ~sim:None criterion grid
    ~nominal:(Array.make (Grid.n_points grid) Complex.zero)

let prepare_view ?backend ?(criterion = default_criterion) probe grid netlist =
  (* One engine for the whole view: the fault-free factors are built
     once per frequency and shared by the envelope preparation and by
     every fault's rank-1 solve. *)
  let structure = structure_of probe netlist in
  if structure.dead then dead_view ~criterion ~structure grid
  else
    live_view ~criterion ~structure grid
      (Fastsim.create ?backend ~source:probe.source ~output:probe.output
         ~freqs_hz:(Grid.freqs_hz grid) netlist)

let with_view ~pool ?(criterion = default_criterion) probe grid netlist f =
  let structure = structure_of probe netlist in
  if structure.dead then f (dead_view ~criterion ~structure grid)
  else
    Fastsim.with_engine ~pool ~source:probe.source ~output:probe.output
      ~freqs_hz:(Grid.freqs_hz grid) netlist (fun sim ->
        f (live_view ~criterion ~structure grid sim))

(* The view's engine; only live rows reach it. *)
let engine pv =
  match pv.sim with
  | Some sim -> sim
  | None -> invalid_arg "Detect: a dead view has no engine"

let view_dead pv = pv.structure.dead

let result_of_regions grid fault intervals =
  let regions = Util.Interval.Set.of_intervals intervals in
  let measure = Util.Interval.Set.measure regions in
  let omega_det = measure /. Grid.log_measure grid in
  { fault; detectable = not (Util.Interval.Set.is_empty regions); omega_det; regions }

(* The independent reference: a whole boxed {!Fastsim.response} row,
   reduced point by point. It shares nothing with the campaign path
   below ({!anchor}, {!score_point}) but the prepared view and the two
   deviation measures. An
   isolated fault's row and a dead view's rows are all-'u' by
   definition and cost no solve; an unknown element still raises like
   the engine. *)
let result_of pv grid fault =
  let structure = pv.structure in
  if not (Netlist.mem structure.netlist fault.Fault.element) then
    raise (Fault.Unknown_element fault.Fault.element);
  let intervals = ref [] in
  if not (structure.dead || isolated structure fault) then begin
    let faulty = Fastsim.response (engine pv) fault in
    for i = 0 to Grid.n_points grid - 1 do
      (* Below the measurement floor there is no verdict to salvage
         from a failed solve either — the point is undetectable by
         definition. *)
      let deviates =
        Bytes.get pv.mask i = '\000'
        &&
        match faulty.(i) with
        | None -> true
        | Some tf ->
            Array.exists
              (fun p -> deviation_of p.measure pv.nominal.(i) tf > p.thresholds.(i))
              pv.subs
      in
      if deviates then intervals := Grid.point_interval grid i :: !intervals
    done
  end;
  result_of_regions grid fault !intervals

let analyze ?backend ?criterion probe grid netlist faults =
  let pv = prepare_view ?backend ?criterion probe grid netlist in
  List.map (result_of pv grid) faults

(* ---- point scoring (the campaign path) ----

   The campaign driver (Mcdft_core.Adaptive) builds one plan per
   (view, fault), asks {!anchor} which points are decided without a
   solve, solves every other one with {!score_point} and reduces the
   verdict bytes through {!result_of_verdicts}. *)

(* [Dead]: a fault of a dead view on a passive that is not isolated. *)
type plan = Isolated | Dead | Live of Fastsim.plan

let plan_fault pv fault =
  let structure = pv.structure in
  if not (Netlist.mem structure.netlist fault.Fault.element) then
    raise (Fault.Unknown_element fault.Fault.element);
  if isolated structure fault then Isolated
  else match pv.sim with None -> Dead | Some sim -> Live (Fastsim.plan_of sim fault)

let plan_isolated = function Isolated -> true | Dead | Live _ -> false

(* The campaign's one static rule: an isolated fault, a dead view and a
   point below the measurement floor are undetectable by definition. *)
let static pv plan k =
  match plan with Isolated | Dead -> true | Live _ -> Bytes.get pv.mask k = '\001'

let anchor pv plan k = if static pv plan k then 'u' else '?'

(* Per-domain planar buffers for one solved point: a prepared view is
   scored from several domains at once. *)
type point_buffers = {
  mutable re : float array;
  mutable im : float array;
  mutable ok : Bytes.t;
}

let point_key =
  Domain.DLS.new_key (fun () -> { re = [||]; im = [||]; ok = Bytes.empty })

let point_buffers nf =
  let b = Domain.DLS.get point_key in
  if Array.length b.re < nf then begin
    b.re <- Array.make nf 0.0;
    b.im <- Array.make nf 0.0;
    b.ok <- Bytes.make nf '\000'
  end;
  b

let score_point pv plan k =
  match plan with
  | Live p when not (static pv plan k) ->
      let b = point_buffers (Array.length pv.nominal) in
      Fastsim.response_range_into (engine pv) p ~lo:k ~hi:(k + 1) ~re:b.re ~im:b.im
        ~ok:b.ok;
      (* A failed solve is detectable — the response is wildly wrong,
         not merely deviated. *)
      if Bytes.get b.ok k = '\000' then 'd'
      else begin
        let re = b.re.(k) and im = b.im.(k) and t0 = pv.nominal.(k) in
        let detected = ref false in
        for j = 0 to Array.length pv.subs - 1 do
          let p = pv.subs.(j) in
          if deviation p.measure t0 re im > p.thresholds.(k) then detected := true
        done;
        if !detected then 'd' else 'u'
      end
  | Isolated | Dead | Live _ -> 'u'

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

let minimal_detectable_deviation ?(criterion = default_criterion)
    ?(max_factor = 10.0) probe grid netlist ~element =
  if max_factor <= 1.0 then
    invalid_arg "Detect.minimal_detectable_deviation: max_factor must exceed 1";
  let pv = prepare_view ~criterion probe grid netlist in
  let detectable factor =
    (result_of pv grid (Fault.deviation ~element factor)).detectable
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
