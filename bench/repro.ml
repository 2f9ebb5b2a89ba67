(* Regeneration of every table and figure of the paper's evaluation.

   Each experiment prints the paper's published values next to the
   values measured on our own substrate (MNA fault simulation of the
   Tow-Thomas biquad).  Section 4's optimization artifacts reproduce
   bit-exactly from the embedded Figure 5 / Table 2 data; the simulated
   column reproduces the qualitative shape (see EXPERIMENTS.md). *)

module O = Mcdft_core.Optimizer
module P = Mcdft_core.Pipeline
module PD = Mcdft_core.Paper_data
module IntSet = Cover.Clause.IntSet

let section id title =
  Printf.printf "\n==== %s: %s ====\n\n" id title

let pct v = Printf.sprintf "%.1f" v
let config_name i = Printf.sprintf "C%d" i
let configs_to_string l = "{" ^ String.concat ", " (List.map config_name l) ^ "}"

let opamps_to_string l =
  "{" ^ String.concat ", " (List.map (fun k -> Printf.sprintf "OP%d" (k + 1)) l) ^ "}"

let term_to_string t =
  String.concat "." (List.map config_name (IntSet.elements t))

let opamp_term_to_string t =
  String.concat "." (List.map (fun k -> Printf.sprintf "OP%d" (k + 1)) (IntSet.elements t))

(* The two data sources: the embedded paper tables, and the simulated
   pipeline on our Tow-Thomas biquad. *)
let paper_input =
  lazy (O.input_of_matrices ~n_opamps:PD.n_opamps PD.detectability_matrix PD.omega_table)

let paper_report = lazy (O.optimize (Lazy.force paper_input))
let sim_pipeline = lazy (P.run (Circuits.Tow_thomas.make ()))
let sim_report = lazy (P.optimize (Lazy.force sim_pipeline))

(* The simulated fault list follows netlist insertion order; permute
   its columns into the paper's fR1..fC2 order so the side-by-side
   tables line up. *)
let sim_column_permutation () =
  let t = Lazy.force sim_pipeline in
  let elements =
    Array.map (fun f -> f.Fault.element) t.P.matrix.Testability.Matrix.faults
  in
  Array.map
    (fun pname ->
      let target = String.sub pname 1 (String.length pname - 1) in
      let found = ref (-1) in
      Array.iteri (fun k e -> if e = target then found := k) elements;
      if !found < 0 then failwith ("no simulated fault for " ^ pname);
      !found)
    PD.fault_names

let permute_cols perm m = Array.map (fun row -> Array.map (fun j -> row.(j)) perm) m

let sim_detect_paper_order () =
  permute_cols (sim_column_permutation ())
    (Lazy.force sim_pipeline).P.matrix.Testability.Matrix.detect

let sim_omega_paper_order () =
  (* percent, like the paper's Table 2 *)
  permute_cols (sim_column_permutation ())
    (Array.map
       (Array.map (fun w -> w *. 100.0))
       (Lazy.force sim_pipeline).P.matrix.Testability.Matrix.omega)

(* ---------- E1: Section 2 / Graph 1 ---------- *)

let graph1 () =
  section "E1" "Initial testability of the biquadratic filter (Graph 1)";
  let rp = Lazy.force paper_report and rs = Lazy.force sim_report in
  Printf.printf "paper:    FC = %s%%   <w-det> = %s%%\n"
    (pct (100.0 *. rp.O.functional_coverage))
    (pct rp.O.functional_avg_omega);
  Printf.printf "measured: FC = %s%%   <w-det> = %s%%\n\n"
    (pct (100.0 *. rs.O.functional_coverage))
    (pct rs.O.functional_avg_omega);
  print_string
    (Report.Chart.bars ~width:40 ~labels:PD.fault_names
       ~series:
         [ ("paper", PD.omega_table.(0)); ("measured", (sim_omega_paper_order ()).(0)) ]
       ())

(* ---------- E2: Table 1 ---------- *)

let table1 () =
  section "E2" "Configuration table (Table 1)";
  let rows =
    List.map
      (fun c ->
        let desc =
          if Multiconfig.Configuration.is_functional c then "Funct. Conf"
          else if Multiconfig.Configuration.is_transparent c then "Transp. Conf"
          else "New Test Conf"
        in
        [ Multiconfig.Configuration.label c; Multiconfig.Configuration.vector c; desc ])
      (Multiconfig.Configuration.all ~n_opamps:3)
  in
  print_endline (Report.Table.render ~header:[ "Conf"; "Vector"; "Description" ] rows)

(* ---------- E3: Figure 5 ---------- *)

let detect_matrix_rows detect =
  Array.to_list
    (Array.mapi
       (fun i row ->
         config_name i
         :: Array.to_list (Array.map (fun b -> if b then "1" else "0") row))
       detect)

let figure5 () =
  section "E3" "Fault detectability matrix (Figure 5)";
  let header names = "" :: Array.to_list names in
  print_endline "paper:";
  print_endline
    (Report.Table.render ~header:(header PD.fault_names)
       (detect_matrix_rows PD.detectability_matrix));
  Printf.printf "\nmeasured (criterion: process envelope, tol 4%%, floor 2%%):\n";
  print_endline
    (Report.Table.render ~header:(header PD.fault_names)
       (detect_matrix_rows (sim_detect_paper_order ())));
  let rp = Lazy.force paper_report and rs = Lazy.force sim_report in
  Printf.printf "\nmax fault coverage: paper %s%%, measured %s%%\n"
    (pct (100.0 *. rp.O.max_coverage))
    (pct (100.0 *. rs.O.max_coverage))

(* ---------- E4: Table 2 ---------- *)

let omega_rows omega =
  Array.to_list
    (Array.mapi
       (fun i row ->
         config_name i :: Array.to_list (Array.map (fun w -> pct w) row))
       omega)

let table2 () =
  section "E4" "w-detectability table (Table 2), values in %";
  print_endline "paper:";
  print_endline
    (Report.Table.render
       ~header:("" :: Array.to_list PD.fault_names)
       (omega_rows PD.omega_table));
  print_endline "\nmeasured:";
  print_endline
    (Report.Table.render
       ~header:("" :: Array.to_list PD.fault_names)
       (omega_rows (sim_omega_paper_order ())))

(* ---------- E5: Graph 2 ---------- *)

let graph2 () =
  section "E5" "w-detectability, initial vs DFT-modified (Graph 2)";
  let best input j =
    List.fold_left
      (fun acc i -> Float.max acc input.O.omega.(i).(j))
      0.0
      (List.init (Array.length input.O.detect) Fun.id)
  in
  let per_fault input =
    Array.init (Array.length PD.fault_names) (fun j -> best input j)
  in
  let rp = Lazy.force paper_report and rs = Lazy.force sim_report in
  print_endline "paper:";
  print_string
    (Report.Chart.bars ~width:40 ~labels:PD.fault_names
       ~series:
         [
           ("initial", PD.omega_table.(0));
           ("DFT", per_fault (Lazy.force paper_input));
         ]
       ());
  Printf.printf "  <w-det>: %s%% -> %s%%\n\n" (pct rp.O.functional_avg_omega)
    (pct rp.O.brute_force_avg_omega);
  print_endline "measured:";
  let so = sim_omega_paper_order () in
  let best_col j =
    Array.fold_left (fun acc row -> Float.max acc row.(j)) 0.0 so
  in
  print_string
    (Report.Chart.bars ~width:40 ~labels:PD.fault_names
       ~series:
         [
           ("initial", so.(0));
           ("DFT", Array.init (Array.length PD.fault_names) best_col);
         ]
       ());
  Printf.printf "  <w-det>: %s%% -> %s%%\n" (pct rs.O.functional_avg_omega)
    (pct rs.O.brute_force_avg_omega)

(* ---------- E6: Section 4.1 ---------- *)

let xi_expression () =
  section "E6" "Fundamental requirement: the xi covering expression (Sec. 4.1)";
  let dump label (r : O.report) =
    Printf.printf "%s:\n" label;
    Printf.printf "  xi          = %s\n" (Format.asprintf "%a" Cover.Clause.pp r.O.xi);
    Printf.printf "  essential   = %s\n" (configs_to_string r.O.essential);
    Printf.printf "  xi_reduced  = %s\n"
      (Format.asprintf "%a" Cover.Clause.pp r.O.xi_reduced);
    (match r.O.xi_terms_raw with
    | Some terms ->
        Printf.printf "  xi (SOP)    = %s\n"
          (String.concat " + " (List.map term_to_string terms))
    | None -> ());
    print_newline ()
  in
  dump "paper" (Lazy.force paper_report);
  dump "measured" (Lazy.force sim_report)

(* ---------- E7: Section 4.2 / Graph 3 ---------- *)

let graph3 () =
  section "E7" "Configuration-number optimization (Sec. 4.2, Graph 3)";
  let dump label (r : O.report) input =
    Printf.printf "%s:\n" label;
    Printf.printf "  minimal sets       = %s\n"
      (String.concat "  "
         (List.map (fun s -> configs_to_string (IntSet.elements s)) r.O.min_config_sets));
    List.iter
      (fun s ->
        let configs = IntSet.elements s in
        Printf.printf "  <w-det> of %s = %s%%\n" (configs_to_string configs)
          (pct (O.avg_omega_of input configs)))
      r.O.min_config_sets;
    Printf.printf "  3rd-order choice   = %s (<w-det> = %s%%)\n\n"
      (configs_to_string r.O.choice_a.O.configs)
      (pct r.O.choice_a.O.avg_omega)
  in
  dump "paper" (Lazy.force paper_report) (Lazy.force paper_input);
  dump "measured" (Lazy.force sim_report) (Lazy.force sim_pipeline).P.input;
  (* quantitative refinement of the 2nd-order objective: estimated test
     time of each tied set, settling + measurement model *)
  let t = Lazy.force sim_pipeline in
  let sets =
    List.map IntSet.elements (Lazy.force sim_report).O.min_config_sets
  in
  print_endline "measured, estimated test time of the tied minimal sets:";
  List.iter
    (fun (configs, seconds) ->
      Printf.printf "  %s: %.1f ms\n" (configs_to_string configs) (seconds *. 1e3))
    (Mcdft_core.Test_time.compare_sets t sets);
  print_newline ();
  (* Graph 3 proper: initial vs brute force vs optimized, per fault *)
  let r = Lazy.force paper_report in
  let input = Lazy.force paper_input in
  let per_fault views =
    Array.init (Array.length PD.fault_names) (fun j ->
        List.fold_left (fun acc i -> Float.max acc input.O.omega.(i).(j)) 0.0 views)
  in
  print_endline "paper, per fault:";
  print_string
    (Report.Chart.bars ~width:40 ~labels:PD.fault_names
       ~series:
         [
           ("no DFT", PD.omega_table.(0));
           ("brute", per_fault (List.init 7 Fun.id));
           ("optim", per_fault r.O.choice_a.O.configs);
         ]
       ())

(* ---------- E8: Section 4.3, Table 3 and xi* ---------- *)

let table3_xi_star () =
  section "E8" "Configurable-opamp optimization (Sec. 4.3, Table 3)";
  print_endline "mapping table (configuration -> required configurable opamps):";
  let rows =
    List.map
      (fun c ->
        let i = Multiconfig.Configuration.index c in
        let ops = IntSet.elements (Cover.Mapping.opamps_of_config i) in
        [ config_name i; (if ops = [] then "-" else String.concat " " (List.map (fun k -> Printf.sprintf "Op%d" (k + 1)) ops)) ])
      (Multiconfig.Configuration.test_configurations ~n_opamps:3)
  in
  print_endline (Report.Table.render ~header:[ "Conf"; "Conf Op" ] rows);
  let dump label (r : O.report) =
    Printf.printf "\n%s:\n" label;
    (match r.O.xi_terms_raw with
    | Some terms ->
        Printf.printf "  xi* = %s\n"
          (String.concat " + "
             (List.map opamp_term_to_string (Cover.Mapping.xi_star terms)))
    | None -> ());
    Printf.printf "  minimal opamp sets = %s\n"
      (String.concat "  "
         (List.map (fun s -> opamps_to_string (IntSet.elements s)) r.O.min_opamp_sets));
    Printf.printf "  chosen             = %s\n" (opamps_to_string r.O.choice_b.O.opamps)
  in
  dump "paper" (Lazy.force paper_report);
  dump "measured" (Lazy.force sim_report)

(* ---------- E9: Table 4 / Graph 4 ---------- *)

let graph4 () =
  section "E9" "Partial DFT (Table 4, Graph 4)";
  let dump label (r : O.report) input fault_names =
    let subset = r.O.choice_b.O.opamps in
    let reachable = r.O.choice_b.O.reachable_configs in
    Printf.printf "%s: configurable opamps %s, %d reachable test configurations\n"
      label (opamps_to_string subset) (List.length reachable);
    let rows =
      List.map
        (fun i ->
          let c = Multiconfig.Configuration.make ~n_opamps:input.O.n_opamps i in
          (Printf.sprintf "%s (%s)" (config_name i)
             (Multiconfig.Configuration.vector_partial ~subset c))
          :: Array.to_list (Array.map pct input.O.omega.(i)))
        reachable
    in
    print_endline
      (Report.Table.render ~header:("" :: Array.to_list fault_names) rows);
    Printf.printf "  <w-det>: full DFT %s%%  ->  partial DFT %s%%\n\n"
      (pct r.O.brute_force_avg_omega)
      (pct r.O.choice_b.O.avg_omega_reachable)
  in
  dump "paper" (Lazy.force paper_report) (Lazy.force paper_input) PD.fault_names;
  let sim_input_paper_order =
    { (Lazy.force sim_pipeline).P.input with O.omega = sim_omega_paper_order () }
  in
  dump "measured" (Lazy.force sim_report) sim_input_paper_order PD.fault_names

(* ---------- X1: benchmark zoo sweep ---------- *)

let zoo_sweep () =
  section "X1" "Extension: the optimization across the benchmark zoo";
  Printf.printf
    "(criterion: process envelope tol 4%% floor 2%%; +20%% deviation faults; exact solvers)\n\n";
  let rows =
    List.filter_map
      (fun (b : Circuits.Benchmark.t) ->
        let t0 = Unix.gettimeofday () in
        match P.run ~points_per_decade:6 b with
        | exception e ->
            Printf.printf "  %s skipped: %s\n" b.Circuits.Benchmark.name
              (Printexc.to_string e);
            None
        | t ->
            let r = P.optimize ~petrick_limit:4 t in
            let dt = Unix.gettimeofday () -. t0 in
            Some
              [
                b.Circuits.Benchmark.name;
                string_of_int (Circuits.Benchmark.opamp_count b);
                string_of_int (Circuits.Benchmark.passive_count b);
                pct (100.0 *. r.O.functional_coverage);
                pct (100.0 *. r.O.max_coverage);
                string_of_int (List.length r.O.choice_a.O.configs);
                string_of_int (List.length r.O.choice_b.O.opamps);
                Printf.sprintf "%.2f" dt;
              ])
      (Circuits.Registry.all ())
  in
  print_endline
    (Report.Table.render
       ~header:
         [ "circuit"; "opamps"; "passives"; "FC0 %"; "FCmax %"; "|S_A|"; "|S_B|"; "t (s)" ]
       rows)

(* ---------- X2: covering-solver ablation ---------- *)

let cover_ablation () =
  section "X2" "Ablation: exact branch-and-bound vs greedy vs Petrick";
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, (Unix.gettimeofday () -. t0) *. 1e6)
  in
  let on_problem label p =
    let exact, te = time (fun () -> Cover.Solver.(cover_exn (exact p))) in
    let greedy, tg = time (fun () -> Cover.Solver.(cover_exn (greedy p))) in
    [
      label;
      string_of_int (IntSet.cardinal exact);
      Printf.sprintf "%.0f" te;
      string_of_int (IntSet.cardinal greedy);
      Printf.sprintf "%.0f" tg;
    ]
  in
  let paper_problem = Cover.Clause.of_matrix PD.detectability_matrix in
  let random_problem ~n ~m ~density seed =
    let st = Random.State.make [| seed |] in
    let d =
      Array.init n (fun _ -> Array.init m (fun _ -> Random.State.float st 1.0 < density))
    in
    for j = 0 to m - 1 do
      if not (Array.exists (fun row -> row.(j)) d) then
        d.(Random.State.int st n).(j) <- true
    done;
    Cover.Clause.of_matrix d
  in
  let rows =
    on_problem "paper biquad (7x8)" paper_problem
    :: List.map
         (fun (n, m, density, seed) ->
           on_problem
             (Printf.sprintf "random %dx%d d=%.1f" n m density)
             (random_problem ~n ~m ~density seed))
         [
           (15, 30, 0.2, 11); (15, 30, 0.4, 12); (31, 60, 0.15, 13);
           (31, 60, 0.3, 14); (63, 100, 0.1, 15);
         ]
  in
  print_endline
    (Report.Table.render
       ~header:[ "instance"; "|exact|"; "t_exact us"; "|greedy|"; "t_greedy us" ]
       rows);
  (* greedy sub-optimality count over many random instances *)
  let trials = 200 in
  let suboptimal = ref 0 in
  for seed = 0 to trials - 1 do
    let p = random_problem ~n:12 ~m:20 ~density:0.25 seed in
    let e = Cover.Solver.(cover_exn (exact p)) and g = Cover.Solver.(cover_exn (greedy p)) in
    if IntSet.cardinal g > IntSet.cardinal e then incr suboptimal
  done;
  Printf.printf "\ngreedy sub-optimal on %d/%d random 12x20 instances\n" !suboptimal trials

(* ---------- X3: criterion sensitivity ---------- *)

let epsilon_sweep () =
  section "X3" "Extension: coverage vs detection criterion on the biquad";
  let b = Circuits.Tow_thomas.make () in
  let rows =
    List.map
      (fun eps ->
        let t =
          P.run ~criterion:(Testability.Detect.Fixed_tolerance eps) ~points_per_decade:10 b
        in
        let r = P.optimize t in
        [
          Printf.sprintf "fixed eps = %.0f%%" (eps *. 100.0);
          pct (100.0 *. r.O.functional_coverage);
          pct (100.0 *. r.O.max_coverage);
          string_of_int (List.length r.O.choice_a.O.configs);
        ])
      [ 0.02; 0.05; 0.10; 0.15; 0.20; 0.30; 0.50 ]
    @ List.map
        (fun tol ->
          let t =
            P.run
              ~criterion:
                (Testability.Detect.Process_envelope { component_tol = tol; floor = 0.02 })
              ~points_per_decade:10 b
          in
          let r = P.optimize t in
          [
            Printf.sprintf "envelope tol = %.0f%%" (tol *. 100.0);
            pct (100.0 *. r.O.functional_coverage);
            pct (100.0 *. r.O.max_coverage);
            string_of_int (List.length r.O.choice_a.O.configs);
          ])
        [ 0.02; 0.04; 0.06 ]
  in
  print_endline
    (Report.Table.render ~header:[ "criterion"; "FC0 %"; "FCmax %"; "|S_A|" ] rows);
  (* catastrophic faults: opens and shorts are loud *)
  let t =
    P.run ~points_per_decade:10
      ~faults:(Fault.catastrophic_faults b.Circuits.Benchmark.netlist)
      b
  in
  let r = P.optimize t in
  Printf.printf
    "\ncatastrophic faults (envelope criterion): FC0 = %s%%, FCmax = %s%%\n"
    (pct (100.0 *. r.O.functional_coverage))
    (pct (100.0 *. r.O.max_coverage))

(* ---------- X4: finite-GBW followers ---------- *)

let follower_bandwidth () =
  section "X4" "Ablation: finite-bandwidth configurable opamps";
  Printf.printf
    "The paper assumes follower mode propagates the test input unchanged\n\
     (\"assuming the opamp bandwidth limitation is not reached\"). Emulating\n\
     followers as real unity-feedback buffers quantifies that assumption\n\
     for the 1 kHz biquad:\n\n";
  let b = Circuits.Tow_thomas.make () in
  let row label follower_model =
    let t = P.run ?follower_model ~points_per_decade:10 b in
    let r = P.optimize t in
    [
      label;
      pct (100.0 *. r.O.max_coverage);
      pct r.O.brute_force_avg_omega;
      string_of_int (List.length r.O.choice_a.O.configs);
    ]
  in
  let rows =
    row "ideal follower" None
    :: List.map
         (fun gbw_hz ->
           let model =
             Circuit.Element.Single_pole { dc_gain = 1e5; pole_hz = gbw_hz /. 1e5 }
           in
           row (Printf.sprintf "GBW = %s" (Util.Quantity.to_string gbw_hz)) (Some model))
         [ 10e6; 1e6; 100e3; 10e3 ]
  in
  print_endline
    (Report.Table.render ~header:[ "follower"; "FCmax %"; "<w-det> %"; "|S_A|" ] rows)

(* ---------- X5: test plan ---------- *)

let test_plan () =
  section "X5" "Extension: minimal measurement schedule (frequency ATPG)";
  let t = Lazy.force sim_pipeline in
  let plan = Mcdft_core.Test_plan.build t in
  print_string (Mcdft_core.Test_plan.to_string plan);
  let brute_measurements =
    Testability.Grid.n_points t.P.grid
    * Array.length t.P.matrix.Testability.Matrix.detect
  in
  Printf.printf
    "\nvs. exhaustive testing: %d measurements (full grid x all configurations)\n"
    brute_measurements;
  let diag = Mcdft_core.Test_plan.build_diagnostic t in
  Printf.printf
    "\ndiagnosis-oriented schedule (also separates every separable fault pair):\n\
     %d measurements\n"
    (List.length diag.Mcdft_core.Test_plan.measurements)

(* ---------- X6: Monte-Carlo false alarms ---------- *)

let montecarlo () =
  section "X6" "Extension: good-circuit variation vs the fixed-eps test";
  let b = Circuits.Tow_thomas.make () in
  let grid = Testability.Grid.around ~points_per_decade:10 ~center_hz:1000.0 () in
  let probe = { Testability.Detect.source = "Vin"; output = "v2" } in
  Printf.printf
    "200 Monte-Carlo samples of good biquads, all passives uniform +/-tol.\n\
     A fixed-eps magnitude test rejects a good circuit whose natural\n\
     variation exceeds eps somewhere (false alarm):\n\n";
  let rows =
    List.map
      (fun tol ->
        let mc =
          Testability.Montecarlo.run ~samples:200 ~component_tol:tol probe grid
            b.Circuits.Benchmark.netlist
        in
        [
          Printf.sprintf "%.0f%%" (tol *. 100.0);
          pct (100.0 *. Testability.Montecarlo.false_alarm_rate mc ~epsilon:0.05);
          pct (100.0 *. Testability.Montecarlo.false_alarm_rate mc ~epsilon:0.10);
          pct (100.0 *. Testability.Montecarlo.false_alarm_rate mc ~epsilon:0.20);
        ])
      [ 0.01; 0.02; 0.05; 0.10 ]
  in
  print_endline
    (Report.Table.render
       ~header:[ "comp tol"; "FA% @ eps=5%"; "FA% @ eps=10%"; "FA% @ eps=20%" ]
       rows)

(* ---------- X7: diagnosability ---------- *)

let diagnosability () =
  section "X7" "Extension: fault diagnosability with and without reconfiguration";
  let t = Lazy.force sim_pipeline in
  let row label configs =
    let d = Diagnosis.Dictionary.build ?configs t in
    let groups = Diagnosis.Dictionary.ambiguity_groups d in
    [
      label;
      string_of_int (List.length groups);
      pct (100.0 *. Diagnosis.Dictionary.resolution d);
    ]
  in
  let r = Lazy.force sim_report in
  print_endline
    (Report.Table.render
       ~header:[ "measurement space"; "ambiguity groups"; "resolution %" ]
       [
         row "C0 only (no DFT)" (Some [ 0 ]);
         row "optimal 2-config set" (Some r.O.choice_a.O.configs);
         row "all 7 configurations" None;
       ]);
  Printf.printf
    "\n(resolution = share of detectable faults with a unique signature)\n"

(* ---------- X9: parametric fault-size resolution ---------- *)

let fault_resolution () =
  section "X9" "Extension: smallest detectable deviation per component";
  Printf.printf
    "Bisection on the deviation size: the smallest +x%% fault the test\n\
     detects (envelope criterion). Reconfiguration shrinks the blind\n\
     spot dramatically for the loop-hidden components:\n\n";
  let t = Lazy.force sim_pipeline in
  let b = t.P.benchmark in
  let grid = t.P.grid in
  let criterion = t.P.criterion in
  let probe =
    { Testability.Detect.source = b.Circuits.Benchmark.source;
      output = b.Circuits.Benchmark.output }
  in
  let fmt = function
    | Some f -> Printf.sprintf "%+.1f%%" ((f -. 1.0) *. 100.0)
    | None -> ">900%"
  in
  let dft = t.P.dft in
  let best_config_for j =
    (* the configuration with the highest omega for this fault *)
    let best = ref 0 and best_w = ref (-1.0) in
    Array.iteri
      (fun i _ ->
        if t.P.matrix.Testability.Matrix.omega.(i).(j) > !best_w then begin
          best_w := t.P.matrix.Testability.Matrix.omega.(i).(j);
          best := i
        end)
      t.P.matrix.Testability.Matrix.detect;
    !best
  in
  let rows =
    List.mapi
      (fun j fault ->
        let element = fault.Fault.element in
        let in_c0 =
          Testability.Detect.minimal_detectable_deviation ~criterion probe grid
            b.Circuits.Benchmark.netlist ~element
        in
        let ci = best_config_for j in
        let view =
          Multiconfig.Transform.emulate dft
            (Multiconfig.Configuration.make
               ~n_opamps:(Multiconfig.Transform.n_opamps dft) ci)
        in
        let in_best =
          Testability.Detect.minimal_detectable_deviation ~criterion probe grid view
            ~element
        in
        [ element; fmt in_c0; Printf.sprintf "C%d" ci; fmt in_best ])
      t.P.faults
  in
  print_endline
    (Report.Table.render
       ~header:[ "component"; "min fault in C0"; "best conf"; "min fault there" ]
       rows)

(* ---------- X8: structural prefiltering (the paper's future work) ---------- *)

let prefilter () =
  section "X8" "Future work: structural configuration pre-selection";
  Printf.printf
    "The paper's conclusion proposes selecting simulation candidates from\n\
     structural information. A sound influence analysis marks the\n\
     (configuration, fault) pairs that cannot interact; the campaign\n\
     skips their faulty sweeps, and every one of them is a 0 entry of\n\
     the simulated matrix:\n\n";
  let rows =
    List.map
      (fun (b : Circuits.Benchmark.t) ->
        let t0 = Unix.gettimeofday () in
        let full = P.run ~points_per_decade:6 b in
        let t_full = Unix.gettimeofday () -. t0 in
        let det = Analysis.Detectability.analyse ~faults:full.P.faults full.P.dft in
        let m = full.P.matrix in
        let sound =
          Array.for_all2
            (fun skips row -> Array.for_all2 (fun skip d -> not (skip && d)) skips row)
            det.Analysis.Detectability.undetectable m.Testability.Matrix.detect
        in
        [
          b.Circuits.Benchmark.name;
          Printf.sprintf "%d" (Analysis.Detectability.total_pairs det);
          Printf.sprintf "%d" (Analysis.Detectability.skip_count det);
          (if sound then "yes" else "NO");
          Printf.sprintf "%.2f" t_full;
        ])
      [ Circuits.Tow_thomas.make (); Circuits.Khn.make (); Circuits.Cascade.tow_thomas_pair () ]
  in
  print_endline
    (Report.Table.render
       ~header:[ "circuit"; "pairs"; "prunable"; "all prunable = 0"; "t full (s)" ]
       rows)

(* ---------- X10: embedded block access ---------- *)

let block_access () =
  section "X10" "The paper's Sec. 1 motivation: embedded-block access";
  Printf.printf
    "Testing each opamp stage through its access configuration (every\n\
     other opamp transparent) vs in situ at the functional output:\n\n";
  let t = Lazy.force sim_pipeline in
  let rows =
    List.map
      (fun (r : Mcdft_core.Block_access.report) ->
        [
          Printf.sprintf "OP%d" (r.Mcdft_core.Block_access.but + 1);
          Multiconfig.Configuration.label r.Mcdft_core.Block_access.access;
          string_of_int (List.length r.Mcdft_core.Block_access.faults_in_scope);
          pct (100.0 *. r.Mcdft_core.Block_access.coverage_functional);
          pct (100.0 *. r.Mcdft_core.Block_access.coverage_access);
        ])
      (Mcdft_core.Block_access.per_opamp t)
  in
  print_endline
    (Report.Table.render
       ~header:[ "block"; "access conf"; "faults in scope"; "in-situ FC %"; "access FC %" ]
       rows)

(* ---------- X11: robustness of the optimum across designs ---------- *)

let q_robustness () =
  section "X11" "Extension: is the optimal DFT stable across filter designs?";
  Printf.printf
    "The same Tow-Thomas topology tuned to different quality factors:\n\n";
  let rows =
    List.map
      (fun q ->
        let params = Circuits.Tow_thomas.params_for ~q ~f0_hz:1000.0 () in
        let b = Circuits.Tow_thomas.make ~params () in
        let t = P.run ~points_per_decade:10 b in
        let r = P.optimize t in
        [
          Printf.sprintf "Q = %.2f" q;
          pct (100.0 *. r.O.functional_coverage);
          pct (100.0 *. r.O.max_coverage);
          String.concat "," (List.map (Printf.sprintf "C%d") r.O.choice_a.O.configs);
          String.concat ","
            (List.map (fun k -> Printf.sprintf "OP%d" (k + 1)) r.O.choice_b.O.opamps);
        ])
      [ 0.5; 0.71; 1.0; 1.5; 2.5 ]
  in
  print_endline
    (Report.Table.render
       ~header:[ "design"; "FC0 %"; "FCmax %"; "choice A"; "choice B" ]
       rows)

let all () =
  print_endline "Multi-configuration DFT for analog circuits - reproduction harness";
  print_endline "paper: Renovell, Azais, Bertrand - DATE 1998";
  graph1 ();
  table1 ();
  figure5 ();
  table2 ();
  graph2 ();
  xi_expression ();
  graph3 ();
  table3_xi_star ();
  graph4 ();
  zoo_sweep ();
  cover_ablation ();
  epsilon_sweep ();
  follower_bandwidth ();
  test_plan ();
  montecarlo ();
  diagnosability ();
  prefilter ();
  fault_resolution ();
  block_access ();
  q_robustness ()
