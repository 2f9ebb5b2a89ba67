module Netlist = Circuit.Netlist
module Influence = Circuit.Influence
module P = Mcdft_core.Pipeline

let test_divider_all_influential () =
  let n =
    Netlist.empty ~title:"divider" ()
    |> Netlist.vsource ~name:"V1" "in" "0" 1.0
    |> Netlist.resistor ~name:"R1" "in" "out" 1000.0
    |> Netlist.resistor ~name:"R2" "out" "0" 1000.0
  in
  let a = Influence.analyse ~output:"out" n in
  Alcotest.(check (list string)) "both resistors" [ "R1"; "R2" ]
    (Influence.influential_passives a)

let test_downstream_of_ideal_source_blocked () =
  (* elements behind an ideal opamp output cannot affect that output *)
  let n =
    Netlist.empty ~title:"buffered" ()
    |> Netlist.vsource ~name:"V1" "in" "0" 1.0
    |> Netlist.resistor ~name:"R1" "in" "a" 1000.0
    |> Netlist.capacitor ~name:"C1" "a" "0" 1e-6
    |> Netlist.opamp ~name:"OP1" ~inp:"a" ~inn:"buf" ~out:"buf"
    |> Netlist.resistor ~name:"R2" "buf" "post" 1000.0
    |> Netlist.resistor ~name:"R3" "post" "0" 1000.0
  in
  (* observe the buffer output: the post-buffer divider hangs off an
     ideal source and is invisible *)
  let a = Influence.analyse ~output:"buf" n in
  Alcotest.(check (list string)) "only the front RC" [ "R1"; "C1" ]
    (Influence.influential_passives a);
  (* observe the divider instead: everything matters *)
  let a2 = Influence.analyse ~output:"post" n in
  Alcotest.(check (list string)) "all passives" [ "R1"; "C1"; "R2"; "R3" ]
    (Influence.influential_passives a2)

let test_feedback_reaches_back () =
  (* inverting amplifier: both resistors affect the output through the
     virtual ground *)
  let n =
    Netlist.empty ~title:"inverting" ()
    |> Netlist.vsource ~name:"V1" "in" "0" 1.0
    |> Netlist.resistor ~name:"R1" "in" "m" 1000.0
    |> Netlist.resistor ~name:"R2" "m" "out" 4700.0
    |> Netlist.opamp ~name:"OP1" ~inp:"0" ~inn:"m" ~out:"out"
  in
  let a = Influence.analyse ~output:"out" n in
  Alcotest.(check (list string)) "both" [ "R1"; "R2" ] (Influence.influential_passives a)

let test_unknown_element_raises () =
  let n =
    Netlist.empty () |> Netlist.vsource ~name:"V1" "a" "0" 1.0
    |> Netlist.resistor ~name:"R1" "a" "0" 1.0
  in
  let a = Influence.analyse ~output:"a" n in
  Alcotest.check_raises "unknown" Not_found (fun () ->
      ignore (Influence.can_affect_output a "R9"))

(* Soundness against simulation: any fault that the simulator detects
   must be structurally influential — across every configuration of the
   biquad, KHN and notch circuits. *)
let test_soundness_vs_simulation () =
  List.iter
    (fun benchmark ->
      let t = P.run ~points_per_decade:8 benchmark in
      let dft = t.P.dft in
      List.iteri
        (fun row config ->
          let view = Multiconfig.Transform.emulate dft config in
          let influence =
            Circuit.Influence.analyse ~output:benchmark.Circuits.Benchmark.output view
          in
          Array.iteri
            (fun j fault ->
              if t.P.matrix.Testability.Matrix.detect.(row).(j) then
                Alcotest.(check bool)
                  (Printf.sprintf "%s %s %s detected -> influential"
                     benchmark.Circuits.Benchmark.name
                     (Multiconfig.Configuration.label config)
                     fault.Fault.id)
                  true
                  (Circuit.Influence.can_affect_output influence fault.Fault.element))
            t.P.matrix.Testability.Matrix.faults)
        (Multiconfig.Transform.test_configurations dft))
    [ Circuits.Tow_thomas.make (); Circuits.Khn.make (); Circuits.Notch.make () ]

(* --- structural prefilter (Analysis.Detectability) --- *)

module D = Analysis.Detectability

let test_prefilter_structure () =
  let b = Circuits.Tow_thomas.make () in
  let dft = Multiconfig.Transform.make ~source:"Vin" ~output:"v2" b.Circuits.Benchmark.netlist in
  let det = D.analyse dft in
  Alcotest.(check int) "7 predictions" 7 (List.length det.D.influential);
  Alcotest.(check int) "56 pairs total" 56 (D.total_pairs det);
  Alcotest.(check bool) "some pairs pruned" true (D.skip_count det > 0);
  Alcotest.(check bool) "not everything pruned" true
    (D.skip_count det < D.total_pairs det)

let test_prefilter_matrix_identical () =
  (* pair-level pruning must not change the matrix at all: forcing
     every structurally skipped pair to "not detected" reproduces the
     simulated matrix exactly *)
  let b = Circuits.Tow_thomas.make () in
  let full = P.run ~points_per_decade:8 b in
  let det = D.analyse ~faults:full.P.faults full.P.dft in
  let m = full.P.matrix in
  let skip i j = det.D.undetectable.(i).(j) in
  let pruned_detect =
    Array.mapi
      (fun i row -> Array.mapi (fun j d -> d && not (skip i j)) row)
      m.Testability.Matrix.detect
  in
  let pruned_omega =
    Array.mapi
      (fun i row -> Array.mapi (fun j w -> if skip i j then 0.0 else w) row)
      m.Testability.Matrix.omega
  in
  Alcotest.(check bool) "identical detect matrix" true
    (m.Testability.Matrix.detect = pruned_detect);
  Alcotest.(check bool) "identical omega matrix" true
    (m.Testability.Matrix.omega = pruned_omega)

let test_prefilter_prunes_many_pairs () =
  let b = Circuits.Cascade.tow_thomas_pair () in
  let dft = Multiconfig.Transform.make ~source:"Vin" ~output:"v2B" b.Circuits.Benchmark.netlist in
  let det = D.analyse dft in
  let ratio = float_of_int (D.skip_count det) /. float_of_int (D.total_pairs det) in
  Alcotest.(check bool)
    (Printf.sprintf "pruned %.0f%% of pairs" (100.0 *. ratio))
    true (ratio > 0.2)

let suite =
  [
    Alcotest.test_case "divider" `Quick test_divider_all_influential;
    Alcotest.test_case "ideal source blocks" `Quick test_downstream_of_ideal_source_blocked;
    Alcotest.test_case "feedback reaches back" `Quick test_feedback_reaches_back;
    Alcotest.test_case "unknown element" `Quick test_unknown_element_raises;
    Alcotest.test_case "soundness vs simulation" `Quick test_soundness_vs_simulation;
    Alcotest.test_case "prefilter structure" `Quick test_prefilter_structure;
    Alcotest.test_case "prefilter matrix identical" `Quick test_prefilter_matrix_identical;
    Alcotest.test_case "prefilter prunes pairs" `Quick test_prefilter_prunes_many_pairs;
  ]
