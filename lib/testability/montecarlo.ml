module Netlist = Circuit.Netlist
module Element = Circuit.Element

type stats = {
  samples : int;
  component_tol : float;
  max_dev : float array;
  mean_dev : float array;
  per_sample_peak : float array;
}

(* [netlist] with its [i]-th passive scaled by [factor i], rebuilt in
   one pass; [factor] is called once per passive, in element order. *)
let scale_passives netlist factor =
  let _, rev =
    List.fold_left
      (fun (i, acc) e ->
        match Element.value e with
        | Some v when Element.is_passive e -> (i + 1, Element.with_value e (v *. factor i) :: acc)
        | _ -> (i, e :: acc))
      (0, []) (Netlist.elements netlist)
  in
  Netlist.of_elements ~title:(Netlist.title netlist) (List.rev rev)

let drift_all rng ~component_tol netlist =
  scale_passives netlist (fun _ ->
      1.0 +. (component_tol *. ((Random.State.float rng 2.0) -. 1.0)))

(* [netlist]'s fault-free transfer and that of a drifted copy, on the
   campaign engine ({!Fastsim.drift_sweeper}): every sample has
   [netlist]'s MNA pattern with other values, so one pool's storage
   serves them all and each sample only refactors under the nominal
   engine's symbolic analysis. *)
let sweeper (probe : Detect.probe) grid netlist =
  Fastsim.drift_sweeper ~source:probe.source ~output:probe.output
    ~freqs_hz:(Grid.freqs_hz grid) netlist

let run ?(seed = 42) ?(samples = 200) ?jobs ~component_tol probe grid netlist =
  if samples <= 0 then invalid_arg "Montecarlo.run: samples must be positive";
  Obs.Trace.span "montecarlo.run" @@ fun () ->
  let rng = Random.State.make [| seed |] in
  let nominal, sweep = sweeper probe grid netlist in
  let n = Grid.n_points grid in
  let max_dev = Array.make n 0.0 in
  let sum_dev = Array.make n 0.0 in
  let per_sample_peak = Array.make samples 0.0 in
  (* Draw every sample netlist sequentially so the RNG stream — and
     hence the result — is independent of the worker count, then sweep
     them on the scheduler and reduce sequentially in sample order. *)
  let drifted = Array.make samples netlist in
  Obs.Trace.span "montecarlo.draw" (fun () ->
      for s = 0 to samples - 1 do
        drifted.(s) <- drift_all rng ~component_tol netlist
      done);
  let deviations =
    Obs.Trace.span "montecarlo.sweep" (fun () ->
        Util.Parallel.map ?jobs samples (fun s ->
            Detect.response_deviation ~nominal ~faulty:(sweep drifted.(s))))
  in
  Obs.Trace.span "montecarlo.reduce" (fun () ->
      for s = 0 to samples - 1 do
        let peak = ref 0.0 in
        Array.iteri
          (fun i d ->
            max_dev.(i) <- Float.max max_dev.(i) d;
            sum_dev.(i) <- sum_dev.(i) +. d;
            peak := Float.max !peak d)
          deviations.(s);
        per_sample_peak.(s) <- !peak
      done);
  {
    samples;
    component_tol;
    max_dev;
    mean_dev = Array.map (fun s -> s /. float_of_int samples) sum_dev;
    per_sample_peak;
  }

type coverage = {
  samples : int;
  strata : int;
  component_tol : float;
  epsilon : float;
  boundary_radius : float;
  stratum_samples : int array;
  stratum_accept : float array;
  worst_case : float;
  average_case : float;
}

(* One draw on the shell of ∞-norm radius [radius] of the tolerance
   cube: a uniform direction normalized to ∞-norm 1, scaled by the
   radius. [drift_all] above samples the cube's interior uniformly;
   this samples a chosen shell, which is what the stratified coverage
   estimator needs. *)
let drift_directed rng ~component_tol ~radius netlist =
  let passives = Netlist.passives netlist in
  let n = List.length passives in
  if n = 0 then netlist
  else begin
    let u = Array.make n 0.0 in
    for i = 0 to n - 1 do
      u.(i) <- Random.State.float rng 2.0 -. 1.0
    done;
    let mx = Array.fold_left (fun a x -> Float.max a (Float.abs x)) 0.0 u in
    if mx = 0.0 then u.(0) <- 1.0;
    let mx = Float.max mx 1e-300 in
    scale_passives netlist (fun i -> 1.0 +. (component_tol *. radius *. (u.(i) /. mx)))
  end

let coverage_run ?(seed = 42) ?(samples = 200) ?(strata = 8) ?jobs ~component_tol
    ~epsilon probe grid netlist =
  if strata <= 0 then invalid_arg "Montecarlo.coverage_run: strata must be positive";
  if samples < 2 * strata then
    invalid_arg "Montecarlo.coverage_run: samples must be at least 2*strata";
  if epsilon <= 0.0 then
    invalid_arg "Montecarlo.coverage_run: epsilon must be positive";
  Obs.Trace.span "montecarlo.coverage" @@ fun () ->
  let rng = Random.State.make [| seed |] in
  let nominal, sweep = sweeper probe grid netlist in
  let peak_of drifted_netlist =
    let dev = Detect.response_deviation ~nominal ~faulty:(sweep drifted_netlist) in
    Array.fold_left Float.max 0.0 dev
  in
  (* Phase 1: probe the full-spread shell (radius 1) to locate the ε
     boundary. Deviation scales near-linearly with the spread radius
     for small tolerances, so the radius at which a typical draw first
     crosses ε is about ε divided by the full-spread peak. *)
  let n_probe = Int.max 4 (Int.min 16 (samples / 16)) in
  let probes = Array.make n_probe netlist in
  Obs.Trace.span "montecarlo.coverage_draw" (fun () ->
      for s = 0 to n_probe - 1 do
        probes.(s) <- drift_directed rng ~component_tol ~radius:1.0 netlist
      done);
  let probe_peaks =
    Obs.Trace.span "montecarlo.coverage_probe" (fun () ->
        Util.Parallel.map ?jobs n_probe (fun s -> peak_of probes.(s)))
  in
  let full_peak = Array.fold_left Float.max 0.0 probe_peaks in
  let boundary_radius =
    if full_peak <= 0.0 then 1.0
    else
      Float.min 1.0
        (Float.max (1.0 /. float_of_int strata) (epsilon /. full_peak))
  in
  (* Phase 2: allocate the remaining draws over the radius strata,
     steered toward the stratum holding the boundary — that is where
     the accept/reject verdict actually varies; deep-interior and
     far-exterior shells are near-deterministic and get the floor of
     one draw each. *)
  let remaining = samples - n_probe in
  let weights =
    Array.init strata (fun s ->
        let center = (float_of_int s +. 0.5) /. float_of_int strata in
        1.0
        /. (1.0 +. (float_of_int strata *. Float.abs (center -. boundary_radius))))
  in
  let wsum = Array.fold_left ( +. ) 0.0 weights in
  let alloc =
    Array.map
      (fun w ->
        Int.max 1 (int_of_float (float_of_int remaining *. w /. wsum)))
      weights
  in
  let boundary_stratum =
    Int.min (strata - 1)
      (Int.max 0 (int_of_float (boundary_radius *. float_of_int strata)))
  in
  let allocated = Array.fold_left ( + ) 0 alloc in
  alloc.(boundary_stratum) <-
    Int.max 1 (alloc.(boundary_stratum) + remaining - allocated);
  let total = Array.fold_left ( + ) 0 alloc in
  let draws = Array.make total netlist in
  let stratum_of = Array.make total 0 in
  Obs.Trace.span "montecarlo.coverage_draw" (fun () ->
      let idx = ref 0 in
      for s = 0 to strata - 1 do
        let lo = float_of_int s /. float_of_int strata in
        let hi = float_of_int (s + 1) /. float_of_int strata in
        for _ = 1 to alloc.(s) do
          let radius = lo +. ((hi -. lo) *. Random.State.float rng 1.0) in
          draws.(!idx) <- drift_directed rng ~component_tol ~radius netlist;
          stratum_of.(!idx) <- s;
          incr idx
        done
      done);
  let peaks =
    Obs.Trace.span "montecarlo.coverage_sweep" (fun () ->
        Util.Parallel.map ?jobs total (fun s -> peak_of draws.(s)))
  in
  (* Sequential reduce in draw order; the probe draws sit on the outer
     surface of the outermost shell and sharpen its estimate for free. *)
  let count = Array.make strata 0 in
  let accepted = Array.make strata 0 in
  Array.iter
    (fun peak ->
      count.(strata - 1) <- count.(strata - 1) + 1;
      if peak <= epsilon then accepted.(strata - 1) <- accepted.(strata - 1) + 1)
    probe_peaks;
  for s = 0 to total - 1 do
    let st = stratum_of.(s) in
    count.(st) <- count.(st) + 1;
    if peaks.(s) <= epsilon then accepted.(st) <- accepted.(st) + 1
  done;
  let stratum_accept =
    Array.init strata (fun s ->
        float_of_int accepted.(s) /. float_of_int (Int.max 1 count.(s)))
  in
  let worst_case = stratum_accept.(strata - 1) in
  let dims = List.length (Netlist.passives netlist) in
  let average_case =
    if dims = 0 then worst_case
    else begin
      (* Shell volume fractions of the ∞-norm ball: ((s+1)/K)^d - (s/K)^d.
         With many passives the outer shells dominate, as they should —
         a uniform cube draw almost surely lands near the surface. *)
      let acc = ref 0.0 in
      for s = 0 to strata - 1 do
        let outer = (float_of_int (s + 1) /. float_of_int strata) ** float_of_int dims in
        let inner = (float_of_int s /. float_of_int strata) ** float_of_int dims in
        acc := !acc +. ((outer -. inner) *. stratum_accept.(s))
      done;
      !acc
    end
  in
  {
    samples = n_probe + total;
    strata;
    component_tol;
    epsilon;
    boundary_radius;
    stratum_samples = count;
    stratum_accept;
    worst_case;
    average_case;
  }

let false_alarm_rate stats ~epsilon =
  let rejected =
    Array.fold_left
      (fun acc peak -> if peak > epsilon then acc + 1 else acc)
      0 stats.per_sample_peak
  in
  float_of_int rejected /. float_of_int stats.samples
