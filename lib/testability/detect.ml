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

let default_criterion = Fixed_tolerance 0.10

(* The two deviation measures of a faulty response [re + j·im] against
   the nominal [t0], whose magnitudes [m0 = |t0|] and [mf = |re + j·im|]
   the caller passes in. The faulty response comes in planar parts so
   the campaign's row scorer never boxes it, and it takes each
   magnitude once per point for every sub-criterion and the deviation
   row; [Float.hypot] and [atan2] are exactly [Complex.norm] and
   [Complex.arg]. *)
type measure = Magnitude | Phase

let[@inline] deviation measure (t0 : Complex.t) ~m0 ~mf re im =
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

let deviation_of measure (t0 : Complex.t) (tf : Complex.t) =
  let m0 = Float.hypot t0.re t0.im and mf = Float.hypot tf.re tf.im in
  deviation measure t0 ~m0 ~mf tf.re tf.im

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

(* The measurement floor: a grid point whose nominal response magnitude
   sits below it has no usable reference — the relative deviation there
   is a ratio of floating-point residues (a dead view output, the
   bottom of a notch), and any verdict computed from it is numerical
   noise, not testability. Such points are undetectable by definition,
   failed solves included, so the verdict is a deterministic 'u' in
   every scoring path. The floor is relative to the view's own response
   scale, with an absolute backstop for views that are dead across the
   whole band.

   A view whose output cancels is {e numerically dead}: its response is
   zero in exact arithmetic although the source reaches the output
   structurally (leapfrog5's C198 and C214), so every computed |H| is
   round-off (1e-12..1e-15, depending on the solver) and which points
   clear the relative floor would be decided by the solver, not by the
   circuit. The engine tells cancellation from a response that is
   merely small by the output's own round-off bound
   ({!Fastsim.output_cancels}); every point of such a view is masked,
   as for a structurally dead view. *)
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
     by definition and is never solved.
   The same fixpoint gives the view's output cone
   ({!Circuit.Influence.cone}), the sub-circuit whose system fixes the
   output exactly: a live view's engine solves the cone, not the view,
   wherever the cone is certified and every fault to be solved is on a
   passive. A fault on any other element (an opamp, a source) can
   change which nodes the output depends on, so with one in the list
   the engine solves the whole view. *)
module StringSet = Set.Make (String)

type structure = {
  probe : probe;
  netlist : Netlist.t;
  cone : Netlist.t option;  (* the certified output cone of a live view *)
  dim : int;  (* the engine's MNA dimension; 0 for a dead view *)
  drifting : string list;  (* passives that can affect the output *)
  isolated : StringSet.t;  (* passives that cannot *)
  dead : bool;  (* the source cannot reach the output *)
}

let on_passives netlist (fault : Fault.t) =
  match Netlist.find netlist fault.Fault.element with
  | Some e -> Element.is_passive e
  | None -> true

let structure ?(faults = []) probe netlist =
  let influence = Circuit.Influence.analyse ~output:probe.output netlist in
  let drifting, isolated =
    List.partition
      (Circuit.Influence.can_affect_output influence)
      (List.map Element.name (Netlist.passives netlist))
  in
  let dead =
    Netlist.mem netlist probe.source
    && not (Circuit.Influence.drives_output influence probe.source)
  in
  let cone =
    if dead || not (List.for_all (on_passives netlist) faults) then None
    else Circuit.Influence.cone influence
  in
  {
    probe;
    netlist;
    cone;
    dim =
      (if dead then 0
       else Mna.Index.size (Mna.Index.build (Option.value cone ~default:netlist)));
    drifting;
    isolated = StringSet.of_list isolated;
    dead;
  }

let structure_dead s = s.dead
let engine_dim s = s.dim
let engine_netlist s = Option.value s.cone ~default:s.netlist

(* What a cone class must share besides its system: the probe, with
   the output's position in the engine's index, so that every member
   reads the same unknown; and every passive the engine can perturb, by
   name, with its value bits, its stamp pattern in the engine's index
   and whether it drifts, so that each fault lands on the same entries
   with the same size in every member. *)
let passive_layout s =
  let netlist = engine_netlist s in
  let index = Mna.Index.build netlist in
  let buf = Buffer.create 256 in
  let add_int k = Buffer.add_int32_le buf (Int32.of_int k) in
  let add_node n = add_int (match Mna.Index.node index n with Some i -> i | None -> -1) in
  Buffer.add_string buf (String.concat "\000" [ s.probe.source; s.probe.output; "" ]);
  add_node s.probe.output;
  List.iter
    (fun e ->
      Buffer.add_string buf (Element.name e);
      Buffer.add_char buf '\000';
      Buffer.add_char buf (if StringSet.mem (Element.name e) s.isolated then 'i' else 'd');
      (match e with
      | Element.Resistor { n1; n2; _ } | Element.Capacitor { n1; n2; _ } ->
          add_node n1;
          add_node n2
      | Element.Inductor { name; _ } -> add_int (Mna.Index.branch index name)
      | _ -> ());
      Option.iter
        (fun v -> Buffer.add_int64_le buf (Int64.bits_of_float v))
        (Element.value e))
    (Netlist.passives netlist);
  Buffer.contents buf

let isolated structure (fault : Fault.t) =
  StringSet.mem fault.Fault.element structure.isolated

let rec drift_tolerances = function
  | Process_envelope { component_tol; _ } | Phase_envelope { component_tol; _ } ->
      [ component_tol ]
  | Any_of criteria -> List.concat_map drift_tolerances criteria
  | Fixed_tolerance _ | Phase_fixed _ -> []

(* A fully-prepared view: engine, nominal response, the view's
   structure and its measurement mask — the numeric floor, or every
   point of a dead view — ready to score any number of faults, from any
   number of domains. A dead view has no engine: its rows are all 'u'
   by definition, so nothing is ever solved on it. A live view's engine
   solves its output cone, or the whole view on a [fallback]. The
   criterion's thresholds are built where rows are scored: from the
   campaign's own sweep ({!score_rows}) or from a sweep of the drifts
   alone ({!analyze}). *)
type prepared_view = {
  sim : Fastsim.t option;
  criterion : criterion;
  grid : Grid.t;
  nominal : Complex.t array;
  nominal_mag : float array;  (* |nominal| *)
  structure : structure;
  mask : Bytes.t;
  fallback : bool;
}

(* A live view's envelope drifts as engine plans, in the order its sums
   take them: per envelope sub-criterion, one single-passive deviation
   — a rank-1 fault — per passive that can reach the output. The other
   passives' drifts move the output by exactly zero in exact
   arithmetic ({!Circuit.Influence}), so they would add round-off. *)
let drift_plans pv sim =
  Array.of_list
    (List.concat_map
       (fun tol ->
         List.map
           (fun element -> Fastsim.plan_of sim (Fault.deviation ~element (1.0 +. tol)))
           pv.structure.drifting)
       (drift_tolerances pv.criterion))

(* A live view's instantiated sub-criteria, each envelope summed over
   the swept drift rows of {!drift_plans}, rows [0 ..] of [re]/[im]/[ok]
   in that order. A grid point where a drifted good circuit has no
   solution mirrors the naive path's Singular_circuit. *)
let thresholds pv ~re ~im ~ok =
  let nf = Grid.n_points pv.grid in
  let next = ref 0 in
  let envelope measure ~floor =
    let envelope = Array.make nf floor in
    List.iter
      (fun _ ->
        let r = !next in
        incr next;
        for i = 0 to nf - 1 do
          if Bytes.get ok.(r) i = '\000' then
            raise
              (Mna.Ac.Singular_circuit
                 (Printf.sprintf "MNA matrix singular at f = %g Hz for %S"
                    (Grid.freqs_hz pv.grid).(i)
                    (Netlist.title pv.structure.netlist)));
          let re = re.(r).(i) and im = im.(r).(i) in
          envelope.(i) <-
            envelope.(i)
            +. deviation measure pv.nominal.(i) ~m0:pv.nominal_mag.(i)
                 ~mf:(Float.hypot re im) re im
        done)
      pv.structure.drifting;
    envelope
  in
  let rec subs = function
    | Fixed_tolerance eps -> [ { measure = Magnitude; thresholds = Array.make nf eps } ]
    | Phase_fixed rad -> [ { measure = Phase; thresholds = Array.make nf rad } ]
    | Process_envelope { floor; _ } ->
        [ { measure = Magnitude; thresholds = envelope Magnitude ~floor } ]
    | Phase_envelope { floor_rad; _ } ->
        [ { measure = Phase; thresholds = envelope Phase ~floor:floor_rad } ]
    | Any_of criteria -> List.concat_map subs criteria
  in
  Array.of_list (subs pv.criterion)

(* One engine sweep over a live view: the envelope's drifts at every
   point, then [plans] under the view's measurement mask. Returns the
   view's thresholds, summed from the drift rows, and the planar rows
   of [plans]. *)
let sweep_view pv sim plans =
  let nf = Grid.n_points pv.grid in
  let drifts = drift_plans pv sim in
  let n_drifts = Array.length drifts in
  let swept = Array.append drifts plans in
  let re = Array.map (fun _ -> Array.make nf 0.0) swept
  and im = Array.map (fun _ -> Array.make nf 0.0) swept
  and ok = Array.map (fun _ -> Bytes.make nf '\000') swept in
  let every_point = Bytes.make nf '\000' in
  Fastsim.sweep sim swept ~re ~im ~ok
    ~skip:(Array.mapi (fun r _ -> if r < n_drifts then every_point else pv.mask) swept);
  let rows a = Array.sub a n_drifts (Array.length plans) in
  (thresholds pv ~re ~im ~ok, rows re, rows im, rows ok)

(* The reference's thresholds: the drifts swept alone. A dead view
   reads none. *)
let reference_thresholds pv =
  match pv.sim with
  | None -> [||]
  | Some sim ->
      let subs, _, _, _ = sweep_view pv sim [||] in
      subs

let view_of ~structure ~sim ~fallback ~mask criterion grid ~nominal =
  let nominal_mag = Array.map (fun (t0 : Complex.t) -> Float.hypot t0.re t0.im) nominal in
  { sim; criterion; grid; nominal; nominal_mag; structure; mask; fallback }

(* The rest of a view's preparation once its engine exists. *)
let live_view ~criterion ~structure grid ~fallback sim =
  let nominal = Fastsim.nominal sim in
  let mask =
    if Fastsim.output_cancels sim then Bytes.make (Array.length nominal) '\001'
    else measurement_mask nominal
  in
  view_of ~structure ~sim:(Some sim) ~fallback ~mask criterion grid ~nominal

(* Deadness is decided from the structure alone, before any engine
   exists: a dead view builds no engine, runs no nominal sweep and
   builds no envelope. Its nominal response is exactly zero. *)
let dead_view ~criterion ~structure grid =
  let nf = Grid.n_points grid in
  view_of ~structure ~sim:None ~fallback:false ~mask:(Bytes.make nf '\001') criterion grid
    ~nominal:(Array.make nf Complex.zero)

(* Open a live view's engine with [open_engine netlist k] and hand it
   to [k ~fallback]: on the output cone where it is certified, on the
   whole view where it is not, or where the cone's system is singular
   and the view's is not. A view singular as a whole raises from the
   second attempt, as it always did. Only the engine's own build is
   retried: a singular drifted circuit inside [k] raises through. *)
let open_view_engine ~open_engine structure k =
  let whole () = open_engine structure.netlist (k ~fallback:true) in
  match structure.cone with
  | None -> whole ()
  | Some cone -> (
      let built = ref false in
      match
        open_engine cone (fun sim ->
            built := true;
            k ~fallback:false sim)
      with
      | r -> r
      | exception Mna.Ac.Singular_circuit _ when not !built -> whole ())

let prepare_with ~open_engine ~criterion grid structure f =
  if structure.dead then f (dead_view ~criterion ~structure grid)
  else
    open_view_engine ~open_engine structure (fun ~fallback sim ->
        f (live_view ~criterion ~structure grid ~fallback sim))

let prepare_view ?(criterion = default_criterion) ?faults probe grid netlist =
  (* One engine per view: the fault-free factors are built
     once per frequency and shared by the envelope preparation and by
     every fault's rank-1 solve. *)
  prepare_with
    ~open_engine:(fun netlist k ->
      k
        (Fastsim.create ~source:probe.source ~output:probe.output
           ~freqs_hz:(Grid.freqs_hz grid) netlist))
    ~criterion grid (structure ?faults probe netlist) Fun.id

let with_view ~pool ?(criterion = default_criterion) probe grid structure f =
  let freqs_hz = Grid.freqs_hz grid in
  prepare_with
    ~open_engine:(fun netlist k ->
      Fastsim.with_engine ~pool ~source:probe.source ~output:probe.output ~freqs_hz
        netlist k)
    ~criterion grid structure f

let view_dead pv = pv.structure.dead
let view_fallback pv = pv.fallback

(* The view's engine for a live fault. A cone engine holds the stamps
   of every passive that is not isolated; a fault on another element
   needs the whole view, which {!structure} chooses when it is given
   the fault. *)
let engine pv (fault : Fault.t) =
  match pv.sim with
  | None -> invalid_arg "Detect: a dead view has no engine"
  | Some sim ->
      if Option.is_some pv.structure.cone && (not pv.fallback)
         && not (on_passives pv.structure.netlist fault)
      then
        invalid_arg
          ("Detect: a fault on " ^ fault.Fault.element
         ^ " needs the whole view; build the structure with ~faults");
      sim

let result_of_regions grid fault intervals =
  let regions = Util.Interval.Set.of_intervals intervals in
  let measure = Util.Interval.Set.measure regions in
  let omega_det = measure /. Grid.log_measure grid in
  { fault; detectable = not (Util.Interval.Set.is_empty regions); omega_det; regions }

(* The independent reference: a whole boxed {!Fastsim.response} row,
   reduced point by point against [subs] ({!reference_thresholds}). It
   shares nothing with the campaign path below ({!score_rows}) but the
   prepared view, the engine's single-row sweep and the two deviation
   measures. An isolated fault's row and a dead view's rows are
   all-'u' by definition and cost no solve; an unknown element still
   raises like the engine. *)
let result_of pv subs grid fault =
  let structure = pv.structure in
  if not (Netlist.mem structure.netlist fault.Fault.element) then
    raise (Fault.Unknown_element fault.Fault.element);
  let intervals = ref [] in
  if not (structure.dead || isolated structure fault) then begin
    let faulty = Fastsim.response (engine pv fault) fault in
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
              subs
      in
      if deviates then intervals := Grid.point_interval grid i :: !intervals
    done
  end;
  result_of_regions grid fault !intervals

let analyze ?criterion probe grid netlist faults =
  let pv = prepare_view ?criterion ~faults probe grid netlist in
  let subs = reference_thresholds pv in
  List.map (result_of pv subs grid) faults

(* ---- row scoring (the campaign path) ----

   The campaign driver (Mcdft_core.Adaptive) builds one plan per
   (view, fault), scores a view's rows with {!score_rows} and reduces
   the verdict bytes through {!result_of_verdicts}. *)

(* [Dead]: a fault of a dead view on a passive that is not isolated. *)
type plan = Isolated | Dead | Live of Fastsim.plan

let plan_fault pv fault =
  let structure = pv.structure in
  if not (Netlist.mem structure.netlist fault.Fault.element) then
    raise (Fault.Unknown_element fault.Fault.element);
  if isolated structure fault then Isolated
  else if structure.dead then Dead
  else Live (Fastsim.plan_of (engine pv fault) fault)

let plan_isolated = function Isolated -> true | Dead | Live _ -> false

(* A dead view's mask covers every point. *)
let below_floor pv k = Bytes.get pv.mask k = '\001'

let signed_deviation ~nominal m = (m -. nominal) /. Float.max nominal 1e-12

(* A singular faulty system has no finite response; its recorded
   deviation is a large constant, so the point stays comparable (and
   maximally distinct from any healthy trajectory). *)
let singular_deviation = 1e3

let measured_nominal pv =
  Array.mapi (fun k m0 -> if below_floor pv k then 0.0 else m0) pv.nominal_mag

(* The campaign's one static rule: an isolated fault, a dead view and a
   point below the measurement floor are undetectable by definition.
   Every other point of every row, and every point of the envelope's
   drifts, is solved in one engine sweep; the thresholds are summed
   from the drift rows, then each fault row is decided. *)
let score_rows pv plans =
  let nf = Array.length pv.nominal in
  let masked () = (Bytes.make nf 'u', Array.make nf 0.0, 0) in
  match pv.sim with
  | None -> Array.map (fun _ -> masked ()) plans
  | Some sim ->
      let live = List.filter_map (function Live p -> Some p | Isolated | Dead -> None) in
      let subs, re, im, ok = sweep_view pv sim (Array.of_list (live (Array.to_list plans))) in
      let next = ref (-1) in
      Array.map
        (function
          | Isolated | Dead -> masked ()
          | Live _ ->
              incr next;
              let re = re.(!next) and im = im.(!next) and ok = ok.(!next) in
              let verdicts = Bytes.make nf 'u' and deviations = Array.make nf 0.0 in
              let solved = ref 0 in
              for k = 0 to nf - 1 do
                if not (below_floor pv k) then begin
                  incr solved;
                  (* A failed solve is detectable — the response is
                     wildly wrong, not merely deviated. *)
                  if Bytes.get ok k = '\000' then begin
                    Bytes.set verdicts k 'd';
                    deviations.(k) <- singular_deviation
                  end
                  else begin
                    let re = re.(k) and im = im.(k) and t0 = pv.nominal.(k) in
                    let m0 = pv.nominal_mag.(k) and mf = Float.hypot re im in
                    deviations.(k) <- signed_deviation ~nominal:m0 mf;
                    for j = 0 to Array.length subs - 1 do
                      let p = subs.(j) in
                      if deviation p.measure t0 ~m0 ~mf re im > p.thresholds.(k) then
                        Bytes.set verdicts k 'd'
                    done
                  end
                end
              done;
              (verdicts, deviations, !solved))
        plans

let result_of_verdicts grid fault verdicts =
  if Bytes.length verdicts <> Grid.n_points grid then
    invalid_arg "Detect.result_of_verdicts: verdict length mismatch";
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
  let pv =
    prepare_view ~criterion ~faults:[ Fault.deviation ~element max_factor ] probe grid
      netlist
  in
  let subs = reference_thresholds pv in
  let detectable factor =
    (result_of pv subs grid (Fault.deviation ~element factor)).detectable
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
