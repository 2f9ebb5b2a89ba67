module Netlist = Circuit.Netlist
module I = Util.Interval
module Ratfunc = Linalg.Ratfunc
module Metrics = Obs.Metrics

type view_spec = {
  label : string;
  netlist : Netlist.t;
  source : string;
  output : string;
}

type verdict = Certified_detectable | Certified_undetectable | Unknown

type region = { band : I.t; verdict : verdict }

type cell = { fault : Fault.t; regions : region list; verdicts : Bytes.t }

type view_result = { spec : view_spec; validated : bool; cells : cell array }

type stats = {
  cells : int;
  cells_proved : int;
  points : int;
  points_proved : int;
  skipped_views : int;
}

type t = {
  eps : float;
  margin : float;
  n_points : int;
  freqs_hz : float array;
  views : view_result array;
  stats : stats;
}

(* interval evaluations per cell *)
let budget = 256

(* MNA unknowns: symbolic extraction beyond this is gated out *)
let max_dim = 40

(* certificates must clear ε by a 2 % relative margin, the room left
   for the numeric engine's own rounding *)
let margin = 0.02
let default_work_cap = 256
let min_band_width = 1e-4 (* decades *)

let byte_of_verdict = function
  | Certified_detectable -> 'd'
  | Certified_undetectable -> 'u'
  | Unknown -> '?'

(* ω enclosure of a log10-Hz band. The campaign engine evaluates at
   ω̂ = fl(2π̂ · f_i) for grid floats f_i whose log10 lies in the band;
   the relative widening (1e-12 on the frequency, one ulp on 2π) makes
   the enclosure cover both those evaluation floats and the exact real
   ω they approximate, with orders of magnitude to spare over the few
   ulps the float chain can actually drift. *)
let omega_box band =
  let slack = 1e-12 in
  let f_lo = (10.0 ** band.I.lo) *. (1.0 -. slack) in
  let f_hi = (10.0 ** band.I.hi) *. (1.0 +. slack) in
  let two_pi = 2.0 *. Float.pi in
  I.mul { I.lo = f_lo; hi = f_hi }
    { I.lo = Float.pred two_pi; hi = Float.succ two_pi }

(* Enclosure of the engine's deviation |‖Hf‖ - ‖H0‖| / ‖H0‖ over the
   band. A nominal-magnitude enclosure touching zero yields [0, inf] —
   matching the engine's m0 = 0 special cases, which an interval can
   never separate from its neighbourhood. *)
let dev_box ~h0 ~hf w =
  let m0 = Ratfunc.magnitude_jw_box h0 w in
  let mf = Ratfunc.magnitude_jw_box hf w in
  let d = I.div (I.abs (I.sub mf m0)) m0 in
  { I.lo = Float.max 0.0 d.I.lo; hi = d.I.hi }

(* An undetectability certificate additionally requires both
   denominators to stay relatively far from zero across the band: a
   near-singular solve makes the engine count the point as detectable
   (wildly wrong response), which must never contradict a 'u' cell. *)
let den_comfortable h w =
  let dm = Ratfunc.den_magnitude_jw_box h w in
  dm.I.lo > 0.0 && dm.I.lo > 1e-9 *. dm.I.hi

let classify ~eps ~margin ~h0 ~hf band =
  let w = omega_box band in
  let d = dev_box ~h0 ~hf w in
  if d.I.lo > eps *. (1.0 +. margin) then Some Certified_detectable
  else if
    d.I.hi < eps *. (1.0 -. margin)
    && den_comfortable h0 w && den_comfortable hf w
  then Some Certified_undetectable
  else None

let bisect ~eps ~margin ~budget ~h0 ~hf root =
  let leaves = ref [] in
  let evals = ref 0 in
  let rec go band =
    if !evals >= budget then leaves := { band; verdict = Unknown } :: !leaves
    else begin
      incr evals;
      match classify ~eps ~margin ~h0 ~hf band with
      | Some verdict -> leaves := { band; verdict } :: !leaves
      | None ->
          if I.length band <= min_band_width then
            leaves := { band; verdict = Unknown } :: !leaves
          else begin
            let mid = 0.5 *. (band.I.lo +. band.I.hi) in
            go { I.lo = band.I.lo; hi = mid };
            go { I.lo = mid; hi = band.I.hi }
          end
    end
  in
  go root;
  List.rev !leaves

let verdicts_of_leaves leaves log_freqs =
  let b = Bytes.make (Array.length log_freqs) '?' in
  Array.iteri
    (fun i l ->
      match List.find_opt (fun r -> I.contains r.band l) leaves with
      | Some r -> Bytes.set b i (byte_of_verdict r.verdict)
      | None -> ())
    log_freqs;
  b

(* Spot-check the extracted rational form against the independent
   numeric AC path at a few spread grid points. This is a validation,
   not a proof: the Bareiss elimination is exact over the reals but its
   float coefficients carry round-off the interval evaluation cannot
   see. A view whose symbolic transfer drifts past [tol] from the
   numeric reference (ill-conditioned extraction) contributes only
   Unknown cells; the classification margin absorbs what a passing
   validation can still hide. *)
let probe_tol = 1e-7

let validates ~source ~output netlist h freqs_hz =
  let n = Array.length freqs_hz in
  n = 0
  ||
  let idx = List.sort_uniq compare [ 0; n / 4; n / 2; 3 * n / 4; n - 1 ] in
  let fs = Array.of_list (List.map (fun i -> freqs_hz.(i)) idx) in
  match Mna.Ac.sweep ~source ~output netlist ~freqs_hz:fs with
  | exception Mna.Ac.Singular_circuit _ -> false
  | reference ->
      let ok = ref true in
      Array.iteri
        (fun k f ->
          let sym = Ratfunc.eval_jw h (2.0 *. Float.pi *. f) in
          let r = reference.(k) in
          let err = Complex.norm (Complex.sub sym r) in
          if
            not
              (Float.is_finite err
              && err <= probe_tol *. Float.max 1.0 (Complex.norm r))
          then ok := false)
        fs;
      !ok

let certify ?(work_cap = default_work_cap) ~eps ~freqs_hz specs faults =
  if eps <= 0.0 then invalid_arg "Certify.certify: eps must be positive";
  let n = Array.length freqs_hz in
  let log_freqs = Array.map log10 freqs_hz in
  let root =
    if n = 0 then { I.lo = 0.0; hi = 0.0 }
    else begin
      let lo = log_freqs.(0) and hi = log_freqs.(n - 1) in
      let slack v = 1e-9 *. Float.max 1.0 (Float.abs v) in
      { I.lo = lo -. slack lo; hi = hi +. slack hi }
    end
  in
  let unknown_cell fault =
    {
      fault;
      regions = (if n = 0 then [] else [ { band = root; verdict = Unknown } ]);
      verdicts = Bytes.make n '?';
    }
  in
  let faults = Array.of_list faults in
  (* Symbolic extraction is the expensive step (one Bareiss elimination
     per view plus one per cell); the work cap bounds it so campaigns
     with hundreds of configuration views pay a fixed, predictable
     certification cost. Views are charged in order, so which views
     end up certified is deterministic and jobs-invariant; capped-out
     views just stay Unknown — soundness is unaffected. *)
  let extractions_left = ref work_cap in
  let view_of spec =
    Metrics.incr "certify.views";
    let h0 =
      if
        n = 0
        || !extractions_left < 1 + Array.length faults
        || Mna.Index.size (Mna.Index.build spec.netlist) > max_dim
      then None
      else begin
        decr extractions_left;
        match
          Mna.Symbolic.transfer ~source:spec.source ~output:spec.output
            spec.netlist
        with
        | exception (Mna.Symbolic.Singular_circuit _ | Invalid_argument _) ->
            None
        | h ->
            if validates ~source:spec.source ~output:spec.output spec.netlist h
                 freqs_hz
            then Some h
            else None
      end
    in
    match h0 with
    | None ->
        Metrics.incr "certify.views_skipped";
        { spec; validated = false; cells = Array.map unknown_cell faults }
    | Some h0 ->
        let cell_of fault =
          match
            let faulty = Fault.inject fault spec.netlist in
            decr extractions_left;
            let hf =
              Mna.Symbolic.transfer ~source:spec.source ~output:spec.output
                faulty
            in
            if validates ~source:spec.source ~output:spec.output faulty hf
                 freqs_hz
            then Some hf
            else None
          with
          | exception
              ( Mna.Symbolic.Singular_circuit _ | Fault.Unknown_element _
              | Invalid_argument _ ) ->
              unknown_cell fault
          | None -> unknown_cell fault
          | Some hf ->
              let regions = bisect ~eps ~margin ~budget ~h0 ~hf root in
              { fault; regions; verdicts = verdicts_of_leaves regions log_freqs }
        in
        { spec; validated = true; cells = Array.map cell_of faults }
  in
  let views =
    Metrics.time "certify.seconds" (fun () ->
        Array.of_list (List.map view_of specs))
  in
  let stats =
    let cells = ref 0
    and cells_proved = ref 0
    and points = ref 0
    and points_proved = ref 0
    and skipped = ref 0 in
    Array.iter
      (fun v ->
        if not v.validated then incr skipped;
        Array.iter
          (fun c ->
            incr cells;
            points := !points + n;
            let proved = ref 0 in
            Bytes.iter (fun b -> if b <> '?' then incr proved) c.verdicts;
            points_proved := !points_proved + !proved;
            if n > 0 && !proved = n then incr cells_proved)
          v.cells)
      views;
    {
      cells = !cells;
      cells_proved = !cells_proved;
      points = !points;
      points_proved = !points_proved;
      skipped_views = !skipped;
    }
  in
  { eps; margin; n_points = n; freqs_hz; views; stats }

let verdict_cube t =
  Array.map
    (fun v ->
      Array.map
        (fun c ->
          if v.validated && Bytes.exists (fun b -> b <> '?') c.verdicts then
            Some c.verdicts
          else None)
        v.cells)
    t.views
