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

(* The reference path: boxed functor assembly over the Complex field,
   solved by the one-shot [Cmat.solve]. Its independence lies in the
   assembly alone: the [Assemble.Make] functor stamps every element
   straight into Complex.t entries and shares no code with the split
   stamp planes Fastsim fills (it predates them and is kept precisely
   as this reference). The LU is the campaign's own dense kernel; what
   pins that is test_planar's boxed [Ref], a Complex.t Doolittle LU
   the kernel must match bitwise. *)
let reference_solve ~source netlist ~omega =
  let module F =
    (val Mna.Field.complex ~omega : Mna.Field.S with type t = Complex.t)
  in
  let module A = Mna.Assemble.Make (F) in
  let index = Mna.Index.build netlist in
  let { A.matrix; rhs } = A.assemble ~sources:(Mna.Assemble.Only source) index netlist in
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

(* --- ac-reference: planar nominal sweep vs boxed assembly --------- *)

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

let ac_reference (s : Gen.subject) =
  match Fastsim.create ~source:s.source ~output:s.output ~freqs_hz s.netlist with
  | exception Mna.Ac.Singular_circuit msg -> Skip ("nominal singular: " ^ msg)
  | sim ->
      let nominal = Fastsim.nominal sim in
      let reference = reference_sweep ~source:s.source ~output:s.output s.netlist in
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
      (match List.fold_left check_fault None (faults_for s) with
      | Some m -> Fail m
      | None -> Pass)

(* --- sparse-vs-dense: the two fault-free factorizations ----------- *)

(* Forcing the two {!Fastsim} back-ends onto one subject checks the
   whole sparse stack end-to-end — sparse stamps, Markowitz analysis,
   per-frequency refactorization, back-solves, and the
   Sherman–Morrison machinery running over sparse factors — against
   the dense planar path, nominal and per-fault, cell by cell within
   the family's tolerance envelope. Unlike [ac-reference] this also
   covers the faulty solves, where the backends share the residual
   gate but nothing below it. *)

(* big subjects would pay |faults| ∝ stages; a spread sample keeps the
   oracle O(1)-ish per subject while still touching both ladders *)
let sample_faults limit faults =
  let n = List.length faults in
  if n <= limit then faults
  else
    let step = ((n + limit - 1) / limit) + 1 in
    List.filteri (fun i _ -> i mod step = 0) faults

let sparse_vs_dense (s : Gen.subject) =
  let mk backend =
    Fastsim.create ~backend ~source:s.source ~output:s.output ~freqs_hz s.netlist
  in
  match mk Fastsim.Dense with
  | exception Mna.Ac.Singular_circuit msg -> Skip ("nominal singular: " ^ msg)
  | dense -> (
      match mk Fastsim.Sparse with
      | exception Mna.Ac.Singular_circuit msg ->
          if is_near_singular s then
            (* the two pivot strategies may legitimately disagree at
               the singularity threshold on this family *)
            Skip ("sparse pivoting declares singular: " ^ msg)
          else Fail ("sparse backend singular where dense solves: " ^ msg)
      | sparse ->
          let nd = Fastsim.nominal dense and ns = Fastsim.nominal sparse in
          let failure = ref None in
          let tol = nominal_tol s in
          Array.iteri
            (fun i a ->
              if !failure = None && not (close ~tol a ns.(i)) then
                failure :=
                  Some
                    (Printf.sprintf "nominal at %g Hz: dense %s, sparse %s"
                       freqs_hz.(i) (pp_complex a) (pp_complex ns.(i))))
            nd;
          let lenient = is_near_singular s in
          let check_fault failure (fault : Fault.t) =
            if failure <> None then failure
            else
              let rd = Fastsim.response dense fault in
              let rs = Fastsim.response sparse fault in
              let tol = fault_tol s fault in
              let f = ref None in
              Array.iteri
                (fun i d ->
                  if !f = None then
                    match (d, rs.(i)) with
                    | None, None -> ()
                    | Some a, Some b ->
                        if not (close ~tol a b) then
                          f :=
                            Some
                              (Printf.sprintf "%s at %g Hz: dense %s, sparse %s"
                                 fault.Fault.id freqs_hz.(i) (pp_complex a)
                                 (pp_complex b))
                    | Some _, None ->
                        if not lenient then
                          f :=
                            Some
                              (Printf.sprintf
                                 "%s at %g Hz: dense solvable, sparse singular"
                                 fault.Fault.id freqs_hz.(i))
                    | None, Some _ ->
                        if not lenient then
                          f :=
                            Some
                              (Printf.sprintf
                                 "%s at %g Hz: dense singular, sparse solvable"
                                 fault.Fault.id freqs_hz.(i)))
                rd;
              !f
          in
          (match
             List.fold_left check_fault !failure (sample_faults 24 (faults_for s))
           with
          | Some m -> Fail m
          | None -> Pass))

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

(* Every counter but the ones that count how the schedule ran: the
   scheduler's own activity (the parallel. prefix) and the engine
   workspaces ([fastsim.workspace_allocs] — the campaign's pool makes
   one more whenever views of one dimension overlap in time). *)
let schedule_invariant_counters snap =
  List.filter
    (fun (name, _) ->
      not
        (String.starts_with ~prefix:"parallel." name
        || name = "fastsim.workspace_allocs"))
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

   The numeric side is the campaign's dense LU on the boxed functor
   assembly, as in [reference_solve]. *)

let lu_solvable netlist ~omega =
  let module F =
    (val Mna.Field.complex ~omega : Mna.Field.S with type t = Complex.t)
  in
  let module A = Mna.Assemble.Make (F) in
  let index = Mna.Index.build netlist in
  let { A.matrix; _ } = A.assemble index netlist in
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

(* --- block-backsolve: block-warmed vs cold, campaign vs per-fault -- *)

(* Two comparisons, each of which must hold exactly — every response
   bit, every detect verdict and every omega measure, not just within
   tolerance:
   - per view, an engine whose back-solve cache was filled by
     multi-RHS block back-solves ({!Testability.Fastsim.warm_cache})
     against a cold engine that solves each column on first read —
     the block kernel promises bitwise equality with scalar solves;
   - the campaign driver, which scores every point through immutable
     plans and one solved point at a time, against
     {!Detect.analyze}, which boxes one whole response per fault. *)
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
  let warmed_vs_cold (v : Matrix.view) =
    let engine () =
      Fastsim.create ~source:v.Matrix.probe.Detect.source
        ~output:v.Matrix.probe.Detect.output ~freqs_hz v.Matrix.netlist
    in
    let warmed = engine () and cold = engine () in
    Fastsim.warm_cache warmed faults;
    List.find_map
      (fun fault ->
        if same_bits (Fastsim.response warmed fault) (Fastsim.response cold fault)
        then None
        else
          Some
            (Printf.sprintf "%s / %s: block-warmed response differs from cold"
               v.Matrix.label fault.Fault.id))
      faults
  in
  if views = [] || faults = [] then Skip "no views or no faults to score"
  else
    match
      ( List.find_map warmed_vs_cold views,
        Mcdft_core.Adaptive.build ~jobs:1 grid views faults )
    with
    | exception Mna.Ac.Singular_circuit msg -> Skip ("a view is singular: " ^ msg)
    | Some msg, _ -> Fail msg
    | None, (m, _) ->
        let failure = ref None in
        List.iteri
          (fun i (v : Matrix.view) ->
            if !failure = None then
              List.iteri
                (fun j (r : Detect.result) ->
                  if !failure = None then begin
                    let fault = r.Detect.fault in
                    if r.Detect.detectable <> m.Matrix.detect.(i).(j) then
                      failure :=
                        Some
                          (Printf.sprintf "%s / %s: detect verdicts differ"
                             v.Matrix.label fault.Fault.id)
                    else if r.Detect.omega_det <> m.Matrix.omega.(i).(j) then
                      failure :=
                        Some
                          (Printf.sprintf
                             "%s / %s: per-fault omega %.17g, campaign %.17g"
                             v.Matrix.label fault.Fault.id r.Detect.omega_det
                             m.Matrix.omega.(i).(j))
                  end)
                (Detect.analyze v.Matrix.probe grid v.Matrix.netlist faults))
          views;
        (match !failure with Some msg -> Fail msg | None -> Pass)

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

(* For every fault in the universe, the trajectory its own simulator
   produces must classify back to that fault — or land in an ambiguity
   set containing it, when another fault's trajectory collides within
   the tolerance envelope. *)
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
        | t -> Ok (Diagnosis.Trajectory.of_pipeline t)
        | exception Mna.Ac.Singular_circuit msg -> Error msg
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

(* --- certify-soundness: interval certificates vs the numeric engine *)

(* The adversarial check on {!Analysis.Certify}: every proved byte of
   the verdict cube must equal the exhaustive numeric verdict at its
   grid point, under the criterion the certificates were issued for.
   Each certified (view, fault) row is scored at every grid point and
   compared byte by byte — a single wrong certificate anywhere fails
   the subject, whether or not it would have moved an aggregate
   detect/omega entry, by the campaign's own point scorer
   ({!Detect.score_point}). Points below the view's measurement floor
   are undetectable by definition, whatever any proof or solve says
   (a static {!Detect.anchor} of a fault that is not isolated), so
   they carry no comparison. Runs on
   every generator family, near-singular included (where poles
   crossing the sweep are exactly what the den-comfort guard must
   survive). *)
let certify_soundness (s : Gen.subject) =
  let eps = 0.10 in
  let faults = sample_faults 16 (Fault.both_deviations s.netlist) in
  let views =
    if Netlist.opamps s.netlist <> [] then
      match
        Multiconfig.Transform.make ~source:s.source ~output:s.output s.netlist
      with
      | exception Invalid_argument msg -> Error ("no DFT transform: " ^ msg)
      | dft ->
          Ok
            (List.map
               (fun config ->
                 {
                   Matrix.label = Multiconfig.Configuration.label config;
                   netlist = Multiconfig.Transform.emulate dft config;
                   probe = { Detect.source = s.source; output = s.output };
                 })
               (Multiconfig.Transform.test_configurations dft))
    else
      Ok
        (List.map
           (fun node ->
             {
               Matrix.label = "probe:" ^ node;
               netlist = s.netlist;
               probe = { Detect.source = s.source; output = node };
             })
           (Netlist.internal_nodes s.netlist))
  in
  match views with
  | Error msg -> Skip msg
  | Ok [] -> Skip "no views to certify"
  | Ok views ->
      if faults = [] then Skip "no faults to certify"
      else begin
        let specs =
          List.map
            (fun (v : Matrix.view) ->
              {
                Analysis.Certify.label = v.Matrix.label;
                netlist = v.Matrix.netlist;
                source = v.Matrix.probe.Detect.source;
                output = v.Matrix.probe.Detect.output;
              })
            views
        in
        let cube =
          Analysis.Certify.verdict_cube
            (Analysis.Certify.certify ~eps ~freqs_hz specs faults)
        in
        let criterion = Detect.Fixed_tolerance eps in
        let nf = Grid.n_points grid in
        let check_view (v : Matrix.view) row =
          if Array.for_all Option.is_none row then None
          else
            let pv =
              Detect.prepare_view ~criterion v.Matrix.probe grid v.Matrix.netlist
            in
            List.find_map
              (fun (fault, cell) ->
                Option.bind cell (fun bytes ->
                    let plan = Detect.plan_fault pv fault in
                    let bad = ref None in
                    for k = nf - 1 downto 0 do
                      let b = Bytes.get bytes k in
                      let masked =
                        Detect.anchor pv plan k = 'u' && not (Detect.plan_isolated plan)
                      in
                      if b <> '?' && not masked then
                        let numeric = Detect.score_point pv plan k in
                        if b <> numeric then bad := Some (k, b, numeric)
                    done;
                    Option.map
                      (fun (k, b, numeric) ->
                        Printf.sprintf
                          "%s / %s at %g Hz: certified '%c', numeric engine '%c'"
                          v.Matrix.label fault.Fault.id freqs_hz.(k) b numeric)
                      !bad))
              (List.combine faults (Array.to_list row))
        in
        match
          List.find_map
            (fun (v, row) -> check_view v row)
            (List.combine views (Array.to_list cube))
        with
        | exception Mna.Ac.Singular_circuit msg -> Skip ("a view is singular: " ^ msg)
        | Some msg -> Fail msg
        | None -> Pass
      end

(* --- campaign-vs-analyze: the campaign driver against the reference *)

(* The adversarial check on {!Mcdft_core.Adaptive}: on every family —
   near-singular included, where failed solves and measurement-floor
   masking interleave — the campaign's detect/omega matrices must be
   bitwise identical to the independent per-view reference
   ({!Detect.analyze}: boxed faulty responses reduced point by point),
   at jobs:1 and at jobs:4. Its solve accounting must be
   jobs-invariant too (it is accumulated in the sequential reduce, so
   any divergence means scoring itself raced). *)
let reference_matrix ?criterion grid (views : Matrix.view array) faults =
  let results =
    Array.map
      (fun (v : Matrix.view) ->
        Array.of_list
          (Detect.analyze ?criterion v.Matrix.probe grid v.Matrix.netlist faults))
      views
  in
  ( Array.map (Array.map (fun r -> r.Detect.detectable)) results,
    Array.map (Array.map (fun r -> r.Detect.omega_det)) results )

let compare_campaigns ~reference ~m1 ~m4 ~stats1 ~stats4 =
  let detect_ref, omega_ref = reference in
  if m1.Matrix.detect <> detect_ref then
    Fail "campaign detect matrix differs from the per-view Detect.analyze reference"
  else if m1.Matrix.omega <> omega_ref then
    Fail "campaign omega matrix differs from the per-view Detect.analyze reference"
  else if m4.Matrix.detect <> detect_ref || m4.Matrix.omega <> omega_ref then
    Fail "campaign jobs:4 matrices differ from the Detect.analyze reference"
  else if stats1 <> stats4 then Fail "campaign solve counts differ between jobs:1 and jobs:4"
  else Pass

(* [run jobs] is the campaign's matrix, its solve accounting and its
   reference thunk; the jobs:1 run's reference is the one compared. *)
let check_campaign run =
  match run 1 with
  | exception Mna.Ac.Singular_circuit msg -> Skip ("a view is singular: " ^ msg)
  | m1, stats1, reference -> (
      match run 4 with
      | exception Mna.Ac.Singular_circuit msg ->
          Fail ("campaign jobs:4 singular where jobs:1 solved: " ^ msg)
      | m4, stats4, _ -> (
          match reference () with
          | exception Mna.Ac.Singular_circuit msg ->
              Fail ("Detect.analyze singular where the campaign solved: " ^ msg)
          | reference -> compare_campaigns ~reference ~m1 ~m4 ~stats1 ~stats4))

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
        ( t.P.matrix,
          t.P.adaptive,
          fun () ->
            reference_matrix ~criterion:t.P.criterion t.P.grid t.P.matrix.Matrix.views
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
    let faults = Fault.both_deviations s.netlist in
    if views = [] || faults = [] then Skip "no views or no faults to score"
    else
      check_campaign (fun jobs ->
          let m, stats = Mcdft_core.Adaptive.build ~jobs grid views faults in
          (m, Some stats, fun () -> reference_matrix grid m.Matrix.views faults))

let all =
  [
    {
      name = "ac-reference";
      doc =
        "planar nominal AC sweep vs boxed functor assembly (same dense LU, \
         pinned by test_planar's Ref)";
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
      doc =
        "block-warmed responses bitwise-equal to cold ones, campaign scoring to \
         the Detect.analyze reference";
      check = block_backsolve;
    };
    {
      name = "structural-vs-lu";
      doc =
        "structural rank verdict consistent with the dense LU's Singular on \
         boxed functor assembly";
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
      name = "sparse-vs-dense";
      doc = "forced-Sparse Fastsim nominal + faulty responses vs forced-Dense";
      check = sparse_vs_dense;
    };
    {
      name = "certify-soundness";
      doc = "every certified verdict byte equals the exhaustive numeric verdict";
      check = certify_soundness;
    };
    {
      name = "campaign-vs-analyze";
      doc =
        "campaign matrices at jobs:1 and jobs:4 bitwise equal to per-view \
         Detect.analyze, solve counts jobs-invariant";
      check = campaign_vs_analyze;
    };
  ]

let find name = List.find_opt (fun o -> o.name = name) all

(* bigladder subjects carry hundreds of unknowns: running the campaign
   or cover oracles on them costs minutes each without exercising
   anything the small families don't. Only the direct sweep checks are
   worth the scale. *)
let bigladder_oracles = [ "ac-reference"; "sparse-vs-dense" ]

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
