(* Quickstart: evaluate and optimize the DFT of the paper's biquad.

     dune exec examples/quickstart.exe

   Walks the full flow of the paper on the Tow-Thomas biquadratic
   filter: testability of the functional circuit, the 2^3
   configurations of the multi-configuration DFT, and the
   ordered-requirements optimization. *)

module P = Mcdft_core.Pipeline
module O = Mcdft_core.Optimizer

let () =
  (* 1. pick a circuit (here a built-in benchmark; see custom_netlist.ml
     for user-defined circuits) *)
  let biquad = Circuits.Tow_thomas.make () in
  Printf.printf "circuit: %s\n%!" biquad.Circuits.Benchmark.description;

  (* 2. run the fault-simulation campaign over every test configuration *)
  let t = P.run biquad in
  Printf.printf "simulated %d configurations x %d faults on a %d-point grid\n\n%!"
    (Testability.Matrix.n_views t.P.matrix)
    (Testability.Matrix.n_faults t.P.matrix)
    (Testability.Grid.n_points t.P.grid);

  (* 3. look at the functional circuit first (the paper's Section 2):
     row C0 of the campaign's per-point verdicts *)
  let functional =
    List.mapi
      (fun j fault ->
        Testability.Detect.result_of_verdicts t.P.grid fault
          t.P.matrix.Testability.Matrix.verdicts.(0).(j))
      t.P.faults
  in
  Printf.printf "without DFT: fault coverage %.1f%%, <w-det> %.1f%%\n"
    (100.0 *. Testability.Detect.fault_coverage functional)
    (100.0 *. Testability.Detect.average_omega_det functional);
  List.iter
    (fun (r : Testability.Detect.result) ->
      Printf.printf "  %-8s %s  w-det %.1f%%\n" r.Testability.Detect.fault.Fault.id
        (if r.Testability.Detect.detectable then "detectable    " else "NOT detectable")
        (100.0 *. r.Testability.Detect.omega_det))
    functional;

  (* 4. optimize (the paper's Section 4) *)
  let r = P.optimize t in
  Printf.printf "\nwith DFT: maximum fault coverage %.1f%%\n" (100.0 *. r.O.max_coverage);
  Printf.printf "essential configurations: %s\n"
    (String.concat ", " (List.map (Printf.sprintf "C%d") r.O.essential));
  Printf.printf "minimal test-configuration set: %s  (<w-det> %.1f%%)\n"
    (String.concat ", " (List.map (Printf.sprintf "C%d") r.O.choice_a.O.configs))
    r.O.choice_a.O.avg_omega;
  Printf.printf "partial DFT: make %s configurable  (<w-det> %.1f%%)\n"
    (String.concat ", "
       (List.map (Multiconfig.Transform.opamp_label t.P.dft) r.O.choice_b.O.opamps))
    r.O.choice_b.O.avg_omega_reachable
