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

(* --- structural anchors (Testability.Detect) --- *)

module D_ = Testability.Detect
module M = Testability.Matrix

let test_drives_output () =
  (* the stimulus reaches [out] through the divider; [post] hangs off a
     follower whose input is grounded, so no path leads back to V1 *)
  let n =
    Netlist.empty ~title:"two islands" ()
    |> Netlist.vsource ~name:"V1" "in" "0" 1.0
    |> Netlist.resistor ~name:"R1" "in" "out" 1000.0
    |> Netlist.resistor ~name:"R2" "out" "0" 1000.0
    |> Netlist.opamp ~name:"OP1" ~inp:"0" ~inn:"o1" ~out:"o1"
    |> Netlist.resistor ~name:"R3" "o1" "post" 1000.0
    |> Netlist.resistor ~name:"R4" "post" "0" 1000.0
  in
  Alcotest.(check bool) "V1 drives out" true
    (Influence.drives_output (Influence.analyse ~output:"out" n) "V1");
  let a = Influence.analyse ~output:"post" n in
  Alcotest.(check bool) "V1 cannot drive post" false (Influence.drives_output a "V1");
  Alcotest.(check (list string)) "post still sees its own divider" [ "R3"; "R4" ]
    (Influence.influential_passives a);
  (* a dead view is below the measurement floor everywhere, and an
     isolated passive's faults are never detectable — whatever the
     solver's residue says *)
  let grid = Testability.Grid.around ~points_per_decade:4 ~center_hz:1000.0 () in
  let probe = { D_.source = "V1"; output = "post" } in
  let results =
    D_.analyze ~criterion:(D_.Fixed_tolerance 0.1) probe grid n
      (Fault.catastrophic_faults n)
  in
  Alcotest.(check bool) "dead view: nothing detectable" true
    (List.for_all (fun r -> not r.D_.detectable) results);
  let pv = D_.prepare_view probe grid n in
  Alcotest.(check bool) "view_dead" true (D_.view_dead pv);
  let r4 = D_.plan_fault pv (Fault.deviation ~element:"R4" 1.2) in
  let nf = Testability.Grid.n_points grid in
  Alcotest.(check bool) "every point below the floor" true
    (List.for_all (D_.below_floor pv) (List.init nf Fun.id));
  Alcotest.(check (pair string int)) "all 'u', nothing solved" (String.make nf 'u', 0)
    (let v, _, solved = (D_.score_rows pv [| r4 |]).(0) in
     (Bytes.to_string v, solved));
  Alcotest.(check bool) "R1 isolated, R4 not" true
    (D_.plan_isolated (D_.plan_fault pv (Fault.deviation ~element:"R1" 1.2))
    && not (D_.plan_isolated (D_.plan_fault pv (Fault.deviation ~element:"R4" 1.2))));
  Alcotest.check_raises "unknown element still raises"
    (Fault.Unknown_element "R9")
    (fun () -> ignore (D_.plan_fault pv (Fault.deviation ~element:"R9" 1.2)));
  Alcotest.check_raises "unknown element raises in a dead view too"
    (Fault.Unknown_element "R9")
    (fun () ->
      ignore
        (D_.analyze probe grid n [ Fault.deviation ~element:"R9" 1.2 ]))

(* The independent check of the structural claim the campaign now
   relies on without solving: on every registry circuit, in every view
   whose source reaches the output (peak |H₀| ≥ 1e-9), every fault on a
   passive that Influence calls isolated leaves the engine's response
   where it was. The faults are the envelope's 1.04 drift, the paper's
   +20 %, and the extreme open/short replacements. In exact arithmetic
   the deviation is zero; the bounds are the engine's round-off, which
   a 1 mΩ short in a kΩ network amplifies through the rank-1 update
   (worst measured at ppd 6–10: drifts 1.2e-13, open 4.0e-8, short
   5.8e-6 in leapfrog5 C90) — and each bound is still more than two
   orders of magnitude below the smallest threshold any campaign uses
   (the envelope's 0.02 floor). *)
let test_isolated_faults_cannot_move_output () =
  let bounds = [ ("drift", 1e-10); ("+20%", 1e-10); ("open", 1e-4); ("short", 1e-4) ] in
  let checked = ref 0 in
  List.iter
    (fun (b : Circuits.Benchmark.t) ->
      let source = b.Circuits.Benchmark.source
      and output = b.Circuits.Benchmark.output in
      let dft =
        Multiconfig.Transform.make ~source ~output b.Circuits.Benchmark.netlist
      in
      let grid =
        Testability.Grid.around ~points_per_decade:6
          ~center_hz:b.Circuits.Benchmark.center_hz ()
      in
      List.iter
        (fun config ->
          let view = Multiconfig.Transform.emulate dft config in
          let influence = Influence.analyse ~output view in
          if Influence.drives_output influence source then begin
            let sim =
              Testability.Fastsim.create ~source ~output
                ~freqs_hz:(Testability.Grid.freqs_hz grid) view
            in
            let nominal = Testability.Fastsim.nominal sim in
            let peak =
              Array.fold_left (fun a c -> Float.max a (Complex.norm c)) 0.0 nominal
            in
            (* the documented measurement floor *)
            let floor = Float.max (1e-12 *. peak) 1e-13 in
            if peak >= 1e-9 then
              List.iter
                (fun e ->
                  let element = Circuit.Element.name e in
                  if not (Influence.can_affect_output influence element) then
                    List.iter
                      (fun (label, kind) ->
                        let bound = List.assoc label bounds in
                        let fault = { Fault.id = label; element; kind } in
                        Array.iteri
                          (fun k tf ->
                            if Complex.norm nominal.(k) >= floor then begin
                              incr checked;
                              let dev =
                                match tf with
                                | None -> infinity
                                | Some tf ->
                                    Complex.norm (Complex.sub tf nominal.(k))
                                    /. Complex.norm nominal.(k)
                              in
                              if not (dev < bound) then
                                Alcotest.failf
                                  "%s %s: isolated %s %s moves the output by %g \
                                   (bound %g) at point %d"
                                  b.Circuits.Benchmark.name
                                  (Multiconfig.Configuration.label config)
                                  element label dev bound k
                            end)
                          (Testability.Fastsim.response sim fault))
                      [
                        ("drift", Fault.Deviation 1.04);
                        ("+20%", Fault.Deviation 1.2);
                        ("open", Fault.Open_circuit);
                        ("short", Fault.Short_circuit);
                      ])
                (Netlist.passives view)
          end)
        (Multiconfig.Transform.test_configurations dft))
    (Circuits.Registry.all ());
  Alcotest.(check bool) "some isolated points checked" true (!checked > 10_000)

let count_true m =
  Array.fold_left
    (fun a row -> Array.fold_left (fun a d -> if d then a + 1 else a) a row)
    0 m

(* Regression fixture for spurious detections at floating-point
   residue: leapfrog5 with open/short faults under fixed:0.1 at ppd 10.
   64 of its 255 views cannot pass the source to the output, yet some
   computed responses are residue just above the numeric floor (dead
   views C57 and C185 peak at 3.3e-13 and 1.7e-13), and two live views
   (C198, C214) cancel exactly and peak near 1.5e-12 with C_y3
   isolated; read numerically, that residue yields 38 'd' cells, and
   C198/C214 another 41. The campaign and the per-view Detect.analyze
   reference must agree bit for bit, and no 'd' may land in a dead
   view, in a numerically dead one (C198, C214: an output within its
   own round-off bound at every point) or on an isolated fault. *)
let test_leapfrog_catastrophic_residue () =
  let b = Circuits.Leapfrog.make () in
  let criterion = D_.Fixed_tolerance 0.1 in
  let faults = Fault.catastrophic_faults b.Circuits.Benchmark.netlist in
  let e = P.run ~criterion ~points_per_decade:10 ~faults ~jobs:1 b in
  let me = e.P.matrix in
  let reference =
    Array.map
      (fun (v : M.view) ->
        Array.of_list
          (D_.analyze ~criterion v.M.probe e.P.grid v.M.netlist faults))
      me.M.views
  in
  Alcotest.(check bool) "campaign detect = Detect.analyze" true
    (me.M.detect = Array.map (Array.map (fun r -> r.D_.detectable)) reference);
  Alcotest.(check bool) "campaign omega = Detect.analyze" true
    (me.M.omega = Array.map (Array.map (fun r -> r.D_.omega_det)) reference);
  let dead = ref 0 in
  Array.iteri
    (fun i (v : M.view) ->
      let influence = Influence.analyse ~output:b.Circuits.Benchmark.output v.M.netlist in
      let is_dead =
        not (Influence.drives_output influence b.Circuits.Benchmark.source)
      in
      if is_dead then incr dead;
      Array.iteri
        (fun j (f : Fault.t) ->
          if me.M.detect.(i).(j) then begin
            if is_dead then
              Alcotest.failf "%s / %s detected in a dead view" v.M.label f.Fault.id;
            if List.mem v.M.label [ "C198"; "C214" ] then
              Alcotest.failf "%s / %s detected in a numerically dead view" v.M.label
                f.Fault.id;
            if not (Influence.can_affect_output influence f.Fault.element) then
              Alcotest.failf "%s / %s: isolated fault detected" v.M.label f.Fault.id
          end)
        me.M.faults)
    me.M.views;
  Alcotest.(check int) "dead views" 64 !dead;
  Alcotest.(check int) "'d' cells" 3504 (count_true me.M.detect)

(* campaign.isolated_rows counts exactly the (view, fault) pairs
   Analysis.Detectability reports as structurally undetectable: the
   same Influence predicate, reached from the campaign and from lint. *)
let test_isolated_rows_counter () =
  let b = Circuits.Leapfrog.make () in
  Obs.Metrics.reset ();
  Obs.Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.set_enabled false;
      Obs.Metrics.reset ())
    (fun () ->
      let t =
        P.run ~criterion:(D_.Fixed_tolerance 0.1) ~points_per_decade:3 ~jobs:1
          ~prune:false b
      in
      let snap = Obs.Metrics.snapshot () in
      let det = D.analyse ~faults:t.P.faults t.P.dft in
      Alcotest.(check int) "isolated_rows = Detectability.skip_count"
        (D.skip_count det)
        (Obs.Metrics.counter snap "campaign.isolated_rows");
      Alcotest.(check bool) "some rows isolated" true (D.skip_count det > 0);
      Alcotest.(check int) "dead views" 64
        (Obs.Metrics.counter snap "campaign.dead_views"))

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
    Alcotest.test_case "dead views and isolated faults" `Quick test_drives_output;
    Alcotest.test_case "isolated faults cannot move the output" `Quick
      test_isolated_faults_cannot_move_output;
    Alcotest.test_case "leapfrog5 catastrophic: no residue detections" `Quick
      test_leapfrog_catastrophic_residue;
    Alcotest.test_case "campaign.isolated_rows = Detectability.skip_count" `Quick
      test_isolated_rows_counter;
  ]
