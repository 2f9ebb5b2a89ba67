module Netlist = Circuit.Netlist
open Testability

type verdict = Pass | Fail of string | Skip of string

type t = { name : string; doc : string; check : Gen.subject -> verdict }

let verdict_to_string = function
  | Pass -> "pass"
  | Fail m -> "FAIL: " ^ m
  | Skip m -> "skip: " ^ m

(* One shared grid for every differential sweep: five decades at two
   points per decade. Coarse on purpose — oracles compare two
   implementations point-by-point, they do not need resolution, and a
   fuzzing campaign runs thousands of sweeps. *)
let grid = Grid.make ~points_per_decade:2 ~f_lo:10.0 ~f_hi:1e6 ()
let freqs_hz = Grid.freqs_hz grid

let close ?(tol = 1e-12) a b =
  Complex.norm (Complex.sub a b) <= tol *. Float.max 1.0 (Complex.norm b)

let family_of (s : Gen.subject) =
  match String.index_opt s.label '#' with
  | Some i -> Gen.family_of_string (String.sub s.label 0 i)
  | None -> None

let is_near_singular s = family_of s = Some Gen.Near_singular

(* The reference assembly: every stamp of [Mna.Assemble.stamp_element]
   added, in element order, to a dense Complex.t system as g + iω·c. *)
let reference_system ~sources netlist ~omega =
  let index = Mna.Index.build netlist in
  let n = Mna.Index.size index in
  let matrix = Array.make_matrix n n Complex.zero and rhs = Array.make n Complex.zero in
  let stamp g c = { Complex.re = g; im = omega *. c } in
  let add_m i j g c =
    match (i, j) with
    | Some i, Some j -> matrix.(i).(j) <- Complex.add matrix.(i).(j) (stamp g c)
    | _ -> ()
  and add_b i g c =
    match i with Some i -> rhs.(i) <- Complex.add rhs.(i) (stamp g c) | None -> ()
  in
  List.iter
    (Mna.Assemble.stamp_element ~sources ~add_m ~add_b index)
    (Netlist.elements netlist);
  (index, matrix, rhs)

(* The reference path: {!reference_system}, solved by the one-shot
   [Cmat.solve]. The stamping rules are the engine's own; the
   independence lies in what follows them. Here each stamp is added
   as a complex number to a dense entry and the system is factored by
   the dense [Cmat] LU; the engine sums each slot's s⁰ and s¹
   coefficients over the stamp run ([Mna.Stamps]) and factors through
   the sparse kernel ([Csparse]). What pins the dense LU is
   test_planar's boxed [Ref], a Complex.t Doolittle LU it must match
   bitwise. *)
let reference_solve ~source netlist ~omega =
  let index, matrix, rhs =
    reference_system ~sources:(Mna.Assemble.Only source) netlist ~omega
  in
  (index, Linalg.Cmat.solve (Linalg.Cmat.of_arrays matrix) rhs)

let reference_transfer ~source ~output netlist ~omega =
  let index, x = reference_solve ~source netlist ~omega in
  match Mna.Index.node index output with None -> Complex.zero | Some i -> x.(i)

let reference_sweep ~source ~output netlist =
  Array.map
    (fun f ->
      let omega = 2.0 *. Float.pi *. f in
      match reference_transfer ~source ~output netlist ~omega with
      | v -> Some v
      | exception Linalg.Cmat.Singular -> None)
    freqs_hz

let pp_complex c = Printf.sprintf "%g%+gi" c.Complex.re c.Complex.im

(* --- ac-reference: planar nominal sweep vs the reference ---------- *)

(* Near-singular ladders spread impedances over ~12 decades; both
   paths solve the same ill-conditioned system and each carries a
   forward error of order kappa * eps, so cross-path agreement
   degrades with conditioning. The relaxed envelopes stay orders of
   magnitude below any silent-wrong-answer bug. *)
let nominal_tol s = if is_near_singular s then 1e-6 else 1e-9
let fault_tol s (fault : Fault.t) =
  match (fault.Fault.kind, is_near_singular s) with
  | Fault.Deviation _, false -> 1e-9
  | Fault.Deviation _, true -> 1e-3
  | _, false -> 1e-6
  | _, true -> 1e-3

(* The engine declares a circuit singular only when a Markowitz
   analysis of some frequency's own values finds no pivot; the boxed
   reference's partial-pivoted LU must then fail somewhere too. On the
   near-singular family the two factorizations may legitimately
   disagree at the singularity threshold. *)
let ac_reference (s : Gen.subject) =
  let reference = reference_sweep ~source:s.source ~output:s.output s.netlist in
  match Fastsim.create ~source:s.source ~output:s.output ~freqs_hz s.netlist with
  | exception Mna.Ac.Singular_circuit msg ->
      if is_near_singular s || Array.exists Option.is_none reference then
        Skip ("nominal singular: " ^ msg)
      else Fail ("engine singular where the boxed reference solves every frequency: " ^ msg)
  | sim ->
      let nominal = Fastsim.nominal sim in
      let tol = nominal_tol s in
      let failure = ref None in
      Array.iteri
        (fun i r ->
          if !failure = None then
            match r with
            | None ->
                failure :=
                  Some
                    (Printf.sprintf "%g Hz: planar solvable, boxed singular"
                       freqs_hz.(i))
            | Some b ->
                if not (close ~tol nominal.(i) b) then
                  failure :=
                    Some
                      (Printf.sprintf "%g Hz: planar %s, boxed %s" freqs_hz.(i)
                         (pp_complex nominal.(i)) (pp_complex b)))
        reference;
      (match !failure with Some m -> Fail m | None -> Pass)

(* --- rank1-updates: Sherman–Morrison vs inject-and-resolve -------- *)

(* A spread sample of at most [limit] faults: a subject's fault list
   grows with its size, and a sample keeps an oracle that pays a
   reference per fault O(1)-ish per subject. *)
let sample_faults limit faults =
  let n = List.length faults in
  if n <= limit then faults
  else
    let step = ((n + limit - 1) / limit) + 1 in
    List.filteri (fun i _ -> i mod step = 0) faults

let faults_for s =
  (* catastrophic opens/shorts rescale one conductance by ~1e7; on a
     near-singular ladder that pushes cross-path agreement past any
     useful envelope, so that family checks deviations only *)
  if is_near_singular s then Fault.both_deviations s.Gen.netlist
  else
    Fault.both_deviations s.Gen.netlist @ Fault.catastrophic_faults s.Gen.netlist

let rank1_updates (s : Gen.subject) =
  match Fastsim.create ~source:s.source ~output:s.output ~freqs_hz s.netlist with
  | exception Mna.Ac.Singular_circuit msg -> Skip ("nominal singular: " ^ msg)
  | sim ->
      (* near-singular family: a faulted system can sit exactly at the
         LU's relative pivot threshold, where one path legitimately
         declares Singular and the other solves — skip those points
         (still scanning the rest for value disagreements) instead of
         failing on the threshold itself *)
      let lenient_singularity = is_near_singular s in
      let check_fault failure (fault : Fault.t) =
        if failure <> None then failure
        else
          let fast = Fastsim.response sim fault in
          let faulty = Fault.inject fault s.netlist in
          let naive = reference_sweep ~source:s.source ~output:s.output faulty in
          let tol = fault_tol s fault in
          let f = ref None in
          Array.iteri
            (fun i fo ->
              if !f = None then
                match (fo, naive.(i)) with
                | None, None -> ()
                | Some a, Some b ->
                    if not (close ~tol a b) then
                      f :=
                        Some
                          (Printf.sprintf "%s at %g Hz: fast %s, reference %s"
                             fault.Fault.id freqs_hz.(i) (pp_complex a)
                             (pp_complex b))
                | Some _, None ->
                    if not lenient_singularity then
                      f :=
                        Some
                          (Printf.sprintf
                             "%s at %g Hz: fast solvable, reference singular"
                             fault.Fault.id freqs_hz.(i))
                | None, Some _ ->
                    if not lenient_singularity then
                      f :=
                        Some
                          (Printf.sprintf
                             "%s at %g Hz: fast singular, reference solvable"
                             fault.Fault.id freqs_hz.(i)))
            fast;
          !f
      in
      (* a bigladder's boxed reference is a dense LU of hundreds of
         unknowns per fault and frequency *)
      let faults =
        if family_of s = Some Gen.Bigladder then sample_faults 24 (faults_for s)
        else faults_for s
      in
      (match List.fold_left check_fault None faults with
      | Some m -> Fail m
      | None -> Pass)

(* --- jobs-invariance: parallel campaign = sequential campaign ----- *)

(* Every subject gets a multi-view campaign: opamp circuits through
   the real multi-configuration pipeline, passive ones through
   per-node probe views (any view family works for the campaign
   driver). *)
let campaign ~jobs (s : Gen.subject) =
  if Netlist.opamps s.netlist <> [] then
    let b =
      {
        Circuits.Benchmark.name = s.label;
        description = "conformance fuzz subject";
        netlist = s.netlist;
        source = s.source;
        output = s.output;
        center_hz = 1_000.0;
      }
    in
    (Mcdft_core.Pipeline.run ~points_per_decade:3 ~jobs b).Mcdft_core.Pipeline.matrix
  else
    let views =
      List.map
        (fun node ->
          {
            Matrix.label = "probe:" ^ node;
            netlist = s.netlist;
            probe = { Detect.source = s.source; output = node };
          })
        (Netlist.internal_nodes s.netlist)
    in
    fst
      (Mcdft_core.Adaptive.build ~jobs grid views
         (Fault.both_deviations s.netlist))

(* Every counter but the one that counts how the schedule ran: the
   engine workspaces ([fastsim.workspace_allocs] — the campaign's pool
   makes one more whenever views of one dimension overlap in time). *)
let schedule_invariant_counters snap =
  List.filter
    (fun (name, _) -> name <> "fastsim.workspace_allocs")
    snap.Obs.Metrics.counters

let jobs_invariance (s : Gen.subject) =
  (* when the registry is live (e.g. the fuzz run itself was started
     with --metrics) we must not reset it, so only the matrix halves of
     the property are checked *)
  let check_counters = not (Obs.Metrics.enabled ()) in
  let snapshot_run jobs =
    if check_counters then begin
      Obs.Metrics.set_enabled true;
      Obs.Metrics.reset ()
    end;
    let m = campaign ~jobs s in
    let snap = if check_counters then Some (Obs.Metrics.snapshot ()) else None in
    if check_counters then begin
      Obs.Metrics.reset ();
      Obs.Metrics.set_enabled false
    end;
    (m, snap)
  in
  match snapshot_run 1 with
  | exception Mna.Ac.Singular_circuit msg ->
      if check_counters then begin
        Obs.Metrics.reset ();
        Obs.Metrics.set_enabled false
      end;
      Skip ("a view is singular: " ^ msg)
  | m1, snap1 -> (
      match snapshot_run 4 with
      | exception Mna.Ac.Singular_circuit msg ->
          if check_counters then begin
            Obs.Metrics.reset ();
            Obs.Metrics.set_enabled false
          end;
          Fail ("jobs:4 singular where jobs:1 was not: " ^ msg)
      | m4, snap4 ->
          if m1.Matrix.detect <> m4.Matrix.detect then
            Fail "detect matrices differ between jobs:1 and jobs:4"
          else if m1.Matrix.omega <> m4.Matrix.omega then
            Fail "omega matrices differ between jobs:1 and jobs:4"
          else
            let c1 = Option.map schedule_invariant_counters snap1
            and c4 = Option.map schedule_invariant_counters snap4 in
            if c1 <> c4 then
              Fail "Obs.Metrics counter totals differ between jobs:1 and jobs:4"
            else Pass)

(* --- structural-vs-lu: pattern rank vs numeric factorization ------

   The numeric side is the reference's dense [Cmat] LU on
   {!reference_system}, as in [reference_solve]: independent of the
   engine's sparse kernel, and pinned by test_planar's [Ref]. *)

let lu_solvable netlist ~omega =
  let _, matrix, _ = reference_system ~sources:Mna.Assemble.Nominal netlist ~omega in
  match Linalg.Cmat.lu_factor (Linalg.Cmat.of_arrays matrix) with
  | _ -> true
  | exception Linalg.Cmat.Singular -> false

(* deliberately non-round frequencies: a full-rank circuit is singular
   at a given omega only on a measure-zero set of component values, and
   generated values are continuous draws *)
let probe_omegas =
  List.map (fun f -> 2.0 *. Float.pi *. f) [ 37.0; 3_700.0; 370_000.0 ]

let structural_vs_lu (s : Gen.subject) =
  let verdict = Analysis.Structural.is_singular (Analysis.Structural.analyse s.netlist) in
  if verdict then
    match List.find_opt (fun omega -> lu_solvable s.netlist ~omega) probe_omegas with
    | Some omega ->
        Fail
          (Printf.sprintf
             "structurally singular yet LU succeeds at omega = %g rad/s" omega)
    | None -> Pass
  else if is_near_singular s then
    (* extreme value spreads can push true pivots under the LU's
       relative threshold: the converse direction is only guaranteed
       for exact arithmetic *)
    Skip "full-rank converse not checked on near-singular values"
  else
    match List.find_opt (fun omega -> not (lu_solvable s.netlist ~omega)) probe_omegas with
    | Some omega ->
        Fail
          (Printf.sprintf
             "structurally full-rank yet LU singular at omega = %g rad/s" omega)
    | None -> Pass

(* --- block-backsolve: many-row sweeps vs one-row responses ---------- *)

(* Per view, every fault's row swept together — each frequency's A⁻¹u
   columns solved as one multi-RHS block of k > 1 columns — against
   one {!Testability.Fastsim.response} per fault, whose block holds one
   column: every response bit must agree, since the block kernels
   promise bitwise equality with single solves and a point reads only
   its own column. The campaign's scoring of the same faults against
   {!Detect.analyze} is campaign-vs-analyze's. *)
let same_bits (a : Complex.t option array) b =
  let eq x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y ->
         match (x, y) with
         | None, None -> true
         | Some (x : Complex.t), Some (y : Complex.t) ->
             eq x.Complex.re y.Complex.re && eq x.Complex.im y.Complex.im
         | _ -> false)
       a b

let block_backsolve (s : Gen.subject) =
  let faults = Fault.both_deviations s.netlist @ Fault.catastrophic_faults s.netlist in
  let outputs = Netlist.internal_nodes s.netlist in
  let nf = Array.length freqs_hz and m = List.length faults in
  let swept_vs_single output =
    let sim = Fastsim.create ~source:s.source ~output ~freqs_hz s.netlist in
    let re = Array.init m (fun _ -> Array.make nf 0.0)
    and im = Array.init m (fun _ -> Array.make nf 0.0)
    and ok = Array.init m (fun _ -> Bytes.make nf '\000') in
    Fastsim.sweep sim
      (Array.of_list (List.map (Fastsim.plan_of sim) faults))
      ~skip:(Array.make m (Bytes.make nf '\000'))
      ~re ~im ~ok;
    List.find_map
      (fun (r, fault) ->
        let swept =
          Array.init nf (fun i ->
              if Bytes.get ok.(r) i = '\000' then None
              else Some { Complex.re = re.(r).(i); im = im.(r).(i) })
        in
        if same_bits swept (Fastsim.response sim fault) then None
        else
          Some
            (Printf.sprintf "probe:%s / %s: swept row differs from its one-row response"
               output fault.Fault.id))
      (List.mapi (fun r fault -> (r, fault)) faults)
  in
  if outputs = [] || faults = [] then Skip "no views or no faults to score"
  else
    match List.find_map swept_vs_single outputs with
    | exception Mna.Ac.Singular_circuit msg -> Skip ("a view is singular: " ^ msg)
    | Some msg -> Fail msg
    | None -> Pass

(* --- cover-minimality: branch-and-bound vs exhaustive covers ------ *)

let cover_minimality (s : Gen.subject) =
  match campaign ~jobs:1 s with
  | exception Mna.Ac.Singular_circuit msg -> Skip ("a view is singular: " ^ msg)
  | m ->
      let clause = Cover.Clause.of_matrix m.Matrix.detect in
      let n_candidates = Cover.Clause.IntSet.cardinal (Cover.Clause.candidates clause) in
      if n_candidates = 0 then Skip "no fault is detectable in any view"
      else if n_candidates > 20 then
        Skip (Printf.sprintf "%d candidates exceed brute-force range" n_candidates)
      else
        let exact = Cover.Solver.exact clause in
        let brute = Cover.Solver.brute_force clause in
        let greedy = Cover.Solver.greedy clause in
        let cost = Cover.Solver.cost_of in
        (match (exact, brute, greedy) with
        | Cover exact, Cover brute, Cover greedy ->
            if not (Cover.Clause.is_cover clause exact) then
              Fail "exact returned a non-cover"
            else if not (Cover.Clause.is_cover clause brute) then
              Fail "brute_force returned a non-cover"
            else if not (Cover.Clause.is_cover clause greedy) then
              Fail "greedy returned a non-cover"
            else if cost exact <> cost brute then
              Fail
                (Printf.sprintf "exact cost %g <> brute-force optimum %g" (cost exact)
                   (cost brute))
            else if cost greedy < cost brute then
              Fail
                (Printf.sprintf "greedy cost %g beats the exhaustive optimum %g"
                   (cost greedy) (cost brute))
            else Pass
        | _ ->
            (* of_matrix skips empty columns, so the system is feasible
               by construction — any Infeasible here is a solver bug *)
            Fail "a solver reported an of_matrix system infeasible")

(* --- n-detect: multiplicity covers vs exhaustive enumeration ------ *)

(* The n = 2 instance exercises every multiplicity-specific code path:
   capped needs, residual decrements in the branch-and-bound, and the
   short-fault accounting. Feasibility verdicts on the strict instance
   are checked against the detect-matrix column counts directly, not
   against the solvers' own precheck. *)
let n_detect (s : Gen.subject) =
  match campaign ~jobs:1 s with
  | exception Mna.Ac.Singular_circuit msg -> Skip ("a view is singular: " ^ msg)
  | m ->
      let capped = Cover.Clause.of_matrix ~n:2 m.Matrix.detect in
      let n_candidates = Cover.Clause.IntSet.cardinal (Cover.Clause.candidates capped) in
      if n_candidates = 0 then Skip "no fault is detectable in any view"
      else if n_candidates > 20 then
        Skip (Printf.sprintf "%d candidates exceed brute-force range" n_candidates)
      else
        let cost = Cover.Solver.cost_of in
        (match
           ( Cover.Solver.exact capped,
             Cover.Solver.brute_force capped,
             Cover.Solver.greedy capped,
             Cover.Solver.greedy (Cover.Clause.of_matrix ~n:1 m.Matrix.detect),
             Cover.Solver.greedy (Cover.Clause.of_matrix m.Matrix.detect) )
         with
        | Cover exact, Cover brute, Cover greedy, Cover greedy_n1, Cover greedy_legacy
          ->
            if not (Cover.Clause.is_cover capped exact) then
              Fail "exact violates a multiplicity clause"
            else if not (Cover.Clause.is_cover capped brute) then
              Fail "brute_force violates a multiplicity clause"
            else if not (Cover.Clause.is_cover capped greedy) then
              Fail "greedy violates a multiplicity clause"
            else if cost exact <> cost brute then
              Fail
                (Printf.sprintf "n=2 exact cost %g <> brute-force optimum %g"
                   (cost exact) (cost brute))
            else if cost greedy < cost brute then
              Fail
                (Printf.sprintf "n=2 greedy cost %g beats the exhaustive optimum %g"
                   (cost greedy) (cost brute))
            else if not (Cover.Clause.IntSet.equal greedy_n1 greedy_legacy) then
              Fail "greedy at n=1 differs bitwise from the default covering"
            else
              (* strict instance: every solver must call infeasibility
                 exactly when some column holds fewer than 2 views *)
              let strict = Cover.Clause.of_matrix_exact ~n:2 m.Matrix.detect in
              let expected =
                List.sort_uniq Int.compare
                  (Cover.Clause.uncoverable_faults m.Matrix.detect
                  @ List.map fst (Cover.Clause.short_faults ~n:2 m.Matrix.detect))
              in
              let verdict solver =
                match solver strict with
                | Cover.Solver.Cover _ -> None
                | Cover.Solver.Infeasible tags ->
                    Some (List.sort_uniq Int.compare tags)
              in
              let expected = if expected = [] then None else Some expected in
              if verdict (fun t -> Cover.Solver.greedy t) <> expected then
                Fail "greedy feasibility verdict contradicts the column counts"
              else if verdict (fun t -> Cover.Solver.exact t) <> expected then
                Fail "exact feasibility verdict contradicts the column counts"
              else if verdict (fun t -> Cover.Solver.brute_force t) <> expected then
                Fail "brute_force feasibility verdict contradicts the column counts"
              else Pass
        | _ -> Fail "a solver reported the capped of_matrix system infeasible")

(* --- diagnosis: trajectory self-test round-trip -------------------- *)

(* For every fault in the universe, the trajectory a one-fault campaign
   produces ({!Diagnosis.Trajectory.simulate}) must classify back to
   that fault in the dictionary the whole campaign recorded — or land
   in an ambiguity set containing it, when another fault's trajectory
   collides within the tolerance envelope. *)
let diagnosis (s : Gen.subject) =
  let faults = Fault.both_deviations s.netlist in
  if faults = [] then Skip "no deviation faults to diagnose"
  else
    let traj =
      if Netlist.opamps s.netlist <> [] then
        let b =
          {
            Circuits.Benchmark.name = s.label;
            description = "conformance fuzz subject";
            netlist = s.netlist;
            source = s.source;
            output = s.output;
            center_hz = 1_000.0;
          }
        in
        match Mcdft_core.Pipeline.run ~points_per_decade:3 ~faults ~jobs:1 b with
        | exception Mna.Ac.Singular_circuit msg -> Error msg
        | p -> Ok (Diagnosis.Trajectory.of_pipeline p)
      else
        let views =
          List.map
            (fun node ->
              {
                Matrix.label = "probe:" ^ node;
                netlist = s.netlist;
                probe = { Detect.source = s.source; output = node };
              })
            (Netlist.internal_nodes s.netlist)
        in
        if views = [] then Error "no probe views"
        else
          match Diagnosis.Trajectory.build grid views faults with
          | t -> Ok t
          | exception Mna.Ac.Singular_circuit msg -> Error msg
    in
    match traj with
    | Error msg -> Skip ("cannot build a trajectory dictionary: " ^ msg)
    | Ok traj ->
        let module T = Diagnosis.Trajectory in
        let failure = ref None in
        List.iter
          (fun (f : Fault.t) ->
            if !failure = None then
              let v = T.classify traj (T.simulate traj f) in
              let hit =
                v.T.fault.Fault.id = f.Fault.id
                || List.exists (fun g -> g.Fault.id = f.Fault.id) v.T.ambiguous
              in
              if not hit then
                failure :=
                  Some
                    (Printf.sprintf
                       "%s classified as %s (distance %g) outside its ambiguity set"
                       f.Fault.id v.T.fault.Fault.id v.T.distance))
          faults;
        (match !failure with Some m -> Fail m | None -> Pass)

(* --- campaign-vs-analyze: the campaign driver against the reference *)

(* The adversarial check on {!Mcdft_core.Adaptive}: on every family —
   near-singular included, where failed solves and measurement-floor
   masking interleave — the campaign's detect/omega matrices must be
   bitwise identical to the independent per-view reference
   ({!Detect.analyze}: boxed faulty responses reduced point by point),
   at jobs:1 and at jobs:4, and so must every retained verdict row
   point by point: reduced through {!Detect.result_of_verdicts}, it
   must give the reference result, detectability regions included
   (equal detect/omega alone would not see two swapped points, and the
   test planner and the fault dictionary read single points). Opamp
   subjects run the Pipeline's deviation campaign; passive subjects
   run every probe view against deviation and catastrophic faults
   alike. Its solve accounting must be jobs-invariant too (it is
   accumulated in the sequential reduce, so any divergence means
   scoring itself raced). *)
let reference_results ?criterion grid (views : Matrix.view array) faults =
  Array.map
    (fun (v : Matrix.view) ->
      Array.of_list (Detect.analyze ?criterion v.Matrix.probe grid v.Matrix.netlist faults))
    views

let compare_campaigns ~grid ~reference ~m1 ~m4 ~stats1 ~stats4 =
  let detect_ref = Array.map (Array.map (fun r -> r.Detect.detectable)) reference in
  let omega_ref = Array.map (Array.map (fun r -> r.Detect.omega_det)) reference in
  let rows_match (m : Matrix.t) =
    Array.for_all2
      (Array.for_all2 (fun row (r : Detect.result) ->
           Detect.result_of_verdicts grid r.Detect.fault row = r))
      m.Matrix.verdicts reference
  in
  if m1.Matrix.detect <> detect_ref then
    Fail "campaign detect matrix differs from the per-view Detect.analyze reference"
  else if m1.Matrix.omega <> omega_ref then
    Fail "campaign omega matrix differs from the per-view Detect.analyze reference"
  else if not (rows_match m1) then
    Fail "campaign verdict rows differ point by point from the Detect.analyze reference"
  else if m4.Matrix.detect <> detect_ref || m4.Matrix.omega <> omega_ref || not (rows_match m4)
  then Fail "campaign jobs:4 matrices or verdict rows differ from the Detect.analyze reference"
  else if stats1 <> stats4 then Fail "campaign solve counts differ between jobs:1 and jobs:4"
  else Pass

(* [run jobs] is the campaign's grid, matrix, solve accounting and
   reference thunk; the jobs:1 run's reference is the one compared. *)
let check_campaign run =
  match run 1 with
  | exception Mna.Ac.Singular_circuit msg -> Skip ("a view is singular: " ^ msg)
  | grid, m1, stats1, reference -> (
      match run 4 with
      | exception Mna.Ac.Singular_circuit msg ->
          Fail ("campaign jobs:4 singular where jobs:1 solved: " ^ msg)
      | _, m4, stats4, _ -> (
          match reference () with
          | exception Mna.Ac.Singular_circuit msg ->
              Fail ("Detect.analyze singular where the campaign solved: " ^ msg)
          | reference -> compare_campaigns ~grid ~reference ~m1 ~m4 ~stats1 ~stats4))

let campaign_vs_analyze (s : Gen.subject) =
  let module P = Mcdft_core.Pipeline in
  if Netlist.opamps s.netlist <> [] then
    let b =
      {
        Circuits.Benchmark.name = s.label;
        description = "conformance fuzz subject";
        netlist = s.netlist;
        source = s.source;
        output = s.output;
        center_hz = 1_000.0;
      }
    in
    check_campaign (fun jobs ->
        let t = P.run ~points_per_decade:3 ~jobs b in
        ( t.P.grid,
          t.P.matrix,
          t.P.adaptive,
          fun () ->
            reference_results ~criterion:t.P.criterion t.P.grid t.P.matrix.Matrix.views
              t.P.faults ))
  else
    let views =
      List.map
        (fun node ->
          {
            Matrix.label = "probe:" ^ node;
            netlist = s.netlist;
            probe = { Detect.source = s.source; output = node };
          })
        (Netlist.internal_nodes s.netlist)
    in
    let faults = Fault.both_deviations s.netlist @ Fault.catastrophic_faults s.netlist in
    if views = [] || faults = [] then Skip "no views or no faults to score"
    else
      check_campaign (fun jobs ->
          let m, stats = Mcdft_core.Adaptive.build ~jobs grid views faults in
          (grid, m, Some stats, fun () -> reference_results grid m.Matrix.views faults))

(* --- cone-vs-full: the output cone's engine vs the whole view's --- *)

(* The campaign solves each live view's output cone
   ({!Circuit.Influence.cone}), not the view: the cone's rows fix the
   output exactly in exact arithmetic, so its engine's nominal and a
   rank-1 fault row must match an engine of the whole view to
   rounding. Opamp subjects check every test configuration, passive
   ones every probe node. Fallbacks are counted, not compared: a view
   whose cone is not certified, one whose cone is singular where the
   view is not (the campaign solves the whole view for both), and one
   singular only outside its cone (the campaign solves the cone, the
   whole view has no solution). *)
let cone_vs_full (s : Gen.subject) =
  let views =
    if Netlist.opamps s.netlist <> [] then
      match Multiconfig.Transform.make ~source:s.source ~output:s.output s.netlist with
      | exception Invalid_argument _ -> []
      | dft ->
          List.map
            (fun config -> (Multiconfig.Transform.emulate dft config, s.output))
            (Multiconfig.Transform.test_configurations dft)
    else List.map (fun node -> (s.netlist, node)) (Netlist.internal_nodes s.netlist)
  in
  let tol = nominal_tol s in
  (* agreement to [tol] of the row's peak *)
  let rows_agree a b =
    let peak = Array.fold_left (fun m z -> Float.max m (Complex.norm z)) 0.0 b in
    Array.for_all2 (fun x y -> Complex.norm (Complex.sub x y) <= tol *. peak) a b
  in
  let compared = ref 0 and fallbacks = ref 0 in
  let check (netlist, output) =
    let influence = Circuit.Influence.analyse ~output netlist in
    if not (Circuit.Influence.drives_output influence s.source) then None
    else
      let create n = Fastsim.create ~source:s.source ~output ~freqs_hz n in
      match Circuit.Influence.cone influence with
      | None ->
          incr fallbacks;
          None
      | Some cone -> (
          match (create cone, create netlist) with
          | exception Mna.Ac.Singular_circuit _ ->
              incr fallbacks;
              None
          | c, w ->
              incr compared;
              let fault =
                List.find_map
                  (fun e ->
                    let name = Circuit.Element.name e in
                    if Circuit.Influence.can_affect_output influence name then
                      Some (Fault.deviation ~element:name 1.2)
                    else None)
                  (Netlist.passives netlist)
              in
              let where = Printf.sprintf "output %s of %s" output (Netlist.title netlist) in
              if not (rows_agree (Fastsim.nominal c) (Fastsim.nominal w)) then
                Some (where ^ ": cone nominal differs from the whole view's")
              else
                Option.bind fault (fun fault ->
                    let rc = Fastsim.response c fault and rw = Fastsim.response w fault in
                    if Array.map Option.is_some rc <> Array.map Option.is_some rw then
                      Some (where ^ ": " ^ fault.Fault.id ^ " singular on one engine only")
                    else
                      let values r = Array.map (Option.value ~default:Complex.zero) r in
                      if rows_agree (values rc) (values rw) then None
                      else
                        Some
                          (Printf.sprintf "%s: %s row differs from the whole view's" where
                             fault.Fault.id)))
  in
  match List.find_map check views with
  | Some msg -> Fail msg
  | None ->
      if !compared > 0 then Pass
      else Skip (Printf.sprintf "no cone compared (%d fallbacks)" !fallbacks)

let all =
  [
    {
      name = "ac-reference";
      doc =
        "planar nominal AC sweep vs per-stamp complex assembly solved by \
         the dense Cmat LU (independent of the engine's slot sums and sparse \
         kernel, pinned by test_planar's Ref)";
      check = ac_reference;
    };
    {
      name = "rank1-updates";
      doc = "Sherman-Morrison faulty responses vs inject-and-resolve reference";
      check = rank1_updates;
    };
    {
      name = "jobs-invariance";
      doc = "campaign matrices and Obs.Metrics totals identical for jobs:1 and jobs:4";
      check = jobs_invariance;
    };
    {
      name = "block-backsolve";
      doc = "many-row sweeps bitwise-equal to one-row responses";
      check = block_backsolve;
    };
    {
      name = "structural-vs-lu";
      doc =
        "structural rank verdict consistent with the reference dense Cmat \
         LU's Singular on per-stamp complex assembly (independent of the \
         engine's sparse kernel, pinned by test_planar's Ref)";
      check = structural_vs_lu;
    };
    {
      name = "cover-minimality";
      doc = "exact/greedy covers validated against exhaustive enumeration";
      check = cover_minimality;
    };
    {
      name = "n-detect";
      doc = "multiplicity (n=2) covers optimal, feasibility matching column counts";
      check = n_detect;
    };
    {
      name = "diagnosis";
      doc = "trajectory self-test: every simulated fault classifies back to itself";
      check = diagnosis;
    };
    {
      name = "campaign-vs-analyze";
      doc =
        "campaign matrices and every verdict row, point by point, at jobs:1 \
         and jobs:4 equal to per-view Detect.analyze (deviation and \
         catastrophic faults on probe views), solve counts jobs-invariant";
      check = campaign_vs_analyze;
    };
    {
      name = "cone-vs-full";
      doc =
        "every live view's output-cone engine: nominal and a rank-1 fault row \
         equal to a whole-view engine's to rounding (fallbacks counted)";
      check = cone_vs_full;
    };
  ]

let find name = List.find_opt (fun o -> o.name = name) all

(* bigladder subjects carry hundreds of unknowns: running the campaign
   or cover oracles on them costs minutes each without exercising
   anything the small families don't. Only the direct sweep checks are
   worth the scale. *)
let bigladder_oracles = [ "ac-reference"; "rank1-updates" ]

let run o (s : Gen.subject) =
  if not (Netlist.mem s.netlist s.source) then Skip "source element absent"
  else if not (List.mem s.output (Netlist.nodes s.netlist)) then
    Skip "output node absent"
  else if
    family_of s = Some Gen.Bigladder && not (List.mem o.name bigladder_oracles)
  then Skip "bigladder subjects check the sweep/differential oracles only"
  else
    match o.check s with
    | v -> v
    | exception e -> Fail ("unexpected exception: " ^ Printexc.to_string e)
