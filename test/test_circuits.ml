module Netlist = Circuit.Netlist
module Validate = Circuit.Validate

let magnitude (b : Circuits.Benchmark.t) f_hz =
  Complex.norm
    (Mna.Ac.transfer ~source:b.Circuits.Benchmark.source ~output:b.Circuits.Benchmark.output
       b.Circuits.Benchmark.netlist ~omega:(2.0 *. Float.pi *. f_hz))

let test_all_validate () =
  List.iter
    (fun (b : Circuits.Benchmark.t) ->
      match Validate.check b.Circuits.Benchmark.netlist with
      | Ok () -> ()
      | Error issues ->
          Alcotest.fail
            (Printf.sprintf "%s: %s" b.Circuits.Benchmark.name
               (String.concat "; " (List.map Validate.issue_to_string issues))))
    (Circuits.Registry.all ())

let test_all_solvable () =
  List.iter
    (fun (b : Circuits.Benchmark.t) ->
      let m = magnitude b b.Circuits.Benchmark.center_hz in
      if not (Float.is_finite m) then
        Alcotest.fail (Printf.sprintf "%s: non-finite response" b.Circuits.Benchmark.name))
    (Circuits.Registry.all ())

let test_registry_lookup () =
  Alcotest.(check bool) "tow-thomas present" true (Circuits.Registry.find "tow-thomas" <> None);
  Alcotest.(check bool) "unknown absent" true (Circuits.Registry.find "nope" = None);
  let names = Circuits.Registry.names () in
  Alcotest.(check int) "unique names" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_tow_thomas_response () =
  let b = Circuits.Tow_thomas.make () in
  (* unity DC gain lowpass at 1 kHz, Q = 1 *)
  Alcotest.(check (float 1e-6)) "dc gain" 1.0 (magnitude b 0.01);
  Alcotest.(check (float 1e-3)) "f0 peak = Q" 1.0 (magnitude b 1000.0);
  let deep = magnitude b 100_000.0 in
  Alcotest.(check bool) "-80dB at 100 f0" true (deep < 1.2e-4 && deep > 0.8e-4)

let test_tow_thomas_formulas () =
  let p = Circuits.Tow_thomas.params_for ~q:2.5 ~gain:3.0 ~f0_hz:2500.0 () in
  let b = Circuits.Tow_thomas.make ~params:p () in
  (* a second-order lowpass K w0^2 / (s^2 + s w0/Q + w0^2) is -90
     degrees at f0, with |H| = K Q there *)
  let h =
    Mna.Ac.transfer ~source:b.Circuits.Benchmark.source ~output:b.Circuits.Benchmark.output
      b.Circuits.Benchmark.netlist ~omega:(2.0 *. Float.pi *. 2500.0)
  in
  Alcotest.(check (float 1e-6)) "f0" (Float.pi /. 2.0) (Float.abs (Complex.arg h));
  Alcotest.(check (float 1e-6)) "q" 7.5 (Complex.norm h);
  Alcotest.(check (float 1e-3)) "dc gain 3" 3.0 (magnitude b 0.1)

let test_tow_thomas_symbolic () =
  (* the extracted H(s) must equal the textbook expression *)
  let p = Circuits.Tow_thomas.params_for ~f0_hz:1000.0 () in
  let b = Circuits.Tow_thomas.make ~params:p () in
  let h =
    Mna.Symbolic.transfer ~source:b.Circuits.Benchmark.source
      ~output:b.Circuits.Benchmark.output b.Circuits.Benchmark.netlist
  in
  let w0_sq =
    p.Circuits.Tow_thomas.r6
    /. (p.Circuits.Tow_thomas.r3 *. p.Circuits.Tow_thomas.r4 *. p.Circuits.Tow_thomas.r5
       *. p.Circuits.Tow_thomas.c1 *. p.Circuits.Tow_thomas.c2)
  in
  let num =
    Linalg.Poly.of_coeffs
      [|
        1.0
        /. (p.Circuits.Tow_thomas.r1 *. p.Circuits.Tow_thomas.r4 *. p.Circuits.Tow_thomas.c1
           *. p.Circuits.Tow_thomas.c2);
      |]
  in
  let den =
    Linalg.Poly.of_coeffs
      [| w0_sq; 1.0 /. (p.Circuits.Tow_thomas.r2 *. p.Circuits.Tow_thomas.c1); 1.0 |]
  in
  let expected = Linalg.Ratfunc.make num den in
  Alcotest.(check bool) "H matches textbook form" true (Linalg.Ratfunc.equal_at h expected)

let test_sallen_key_lp () =
  let b = Circuits.Sallen_key.lowpass ~f0_hz:1000.0 ~q:1.0 () in
  Alcotest.(check (float 1e-6)) "dc gain" 1.0 (magnitude b 0.01);
  Alcotest.(check (float 1e-3)) "peak = Q at f0" 1.0 (magnitude b 1000.0);
  Alcotest.(check bool) "rolls off" true (magnitude b 20_000.0 < 0.01)

let test_sallen_key_hp () =
  let b = Circuits.Sallen_key.highpass ~f0_hz:1000.0 ~q:1.0 () in
  Alcotest.(check bool) "blocks dc" true (magnitude b 1.0 < 1e-4);
  Alcotest.(check (float 1e-3)) "passes highs" 1.0 (magnitude b 100_000.0)

let test_mfb_bandpass () =
  let b = Circuits.Mfb.bandpass ~f0_hz:1000.0 ~q:2.0 () in
  let at_f0 = magnitude b 1000.0 in
  Alcotest.(check bool) "peak at f0" true (at_f0 > magnitude b 100.0);
  Alcotest.(check bool) "peak at f0 (high side)" true (at_f0 > magnitude b 10_000.0);
  Alcotest.(check bool) "blocks dc" true (magnitude b 0.1 < 1e-3);
  (* centre frequency: the response 1 octave away must be well below peak *)
  Alcotest.(check bool) "selectivity" true (magnitude b 2000.0 < 0.8 *. at_f0)

let test_khn_taps () =
  let lp = Circuits.Khn.make ~tap:Circuits.Khn.Lowpass () in
  Alcotest.(check (float 1e-3)) "lp dc gain 1" 1.0 (magnitude lp 0.1);
  Alcotest.(check bool) "lp rolls off" true (magnitude lp 100_000.0 < 1e-3);
  let hp = Circuits.Khn.make ~tap:Circuits.Khn.Highpass () in
  Alcotest.(check bool) "hp blocks dc" true (magnitude hp 0.1 < 1e-3);
  Alcotest.(check (float 1e-3)) "hp passes highs" 1.0 (magnitude hp 100_000.0);
  let bp = Circuits.Khn.make ~tap:Circuits.Khn.Bandpass () in
  Alcotest.(check bool) "bp peaks at f0" true
    (magnitude bp 1000.0 > magnitude bp 100.0 && magnitude bp 1000.0 > magnitude bp 10_000.0)

let test_notch_null () =
  let b = Circuits.Notch.make ~f0_hz:1000.0 () in
  let at_null = magnitude b 1000.0 in
  Alcotest.(check bool) "deep null at f0" true (at_null < 1e-6);
  Alcotest.(check (float 1e-3)) "dc passes" 1.0 (magnitude b 0.1);
  Alcotest.(check (float 1e-2)) "highs pass" 1.0 (magnitude b 1_000_000.0)

let test_cascade_order () =
  let b = Circuits.Cascade.sallen_key_chain ~sections:3 () in
  Alcotest.(check int) "3 opamps" 3 (Circuits.Benchmark.opamp_count b);
  Alcotest.(check (float 1e-3)) "dc gain" 1.0 (magnitude b 0.1);
  (* 6th order: ~ -120 dB/decade; a decade above the corner the response
     is far below a single section's *)
  Alcotest.(check bool) "steep rolloff" true (magnitude b 30_000.0 < 1e-6)

let test_tt_pair () =
  let b = Circuits.Cascade.tow_thomas_pair () in
  Alcotest.(check int) "6 opamps" 6 (Circuits.Benchmark.opamp_count b);
  Alcotest.(check (float 1e-2)) "dc gain" 1.0 (magnitude b 0.1);
  Alcotest.(check bool) "4th-order rolloff" true (magnitude b 50_000.0 < 1e-5)

let test_leapfrog_shape () =
  let b = Circuits.Leapfrog.make ~cutoff_hz:1000.0 () in
  Alcotest.(check int) "8 opamps" 8 (Circuits.Benchmark.opamp_count b);
  (* doubly-terminated ladder: flat loss of 1/2 *)
  Alcotest.(check (float 1e-3)) "dc gain 0.5" 0.5 (magnitude b 0.1);
  Alcotest.(check (float 0.02)) "-3dB of 0.5 at cutoff" (0.5 /. sqrt 2.0) (magnitude b 1000.0);
  Alcotest.(check bool) "5th-order rolloff" true (magnitude b 10_000.0 < 1e-4)

let test_leapfrog_poles_are_butterworth () =
  let b = Circuits.Leapfrog.make ~cutoff_hz:1000.0 () in
  let poles =
    Mna.Symbolic.poles ~source:b.Circuits.Benchmark.source
      ~output:b.Circuits.Benchmark.output b.Circuits.Benchmark.netlist
  in
  let wc = 2.0 *. Float.pi *. 1000.0 in
  Alcotest.(check int) "five poles" 5 (Array.length poles);
  Array.iter
    (fun p ->
      Alcotest.(check bool) "stable" true (p.Complex.re < 0.0);
      (* Butterworth poles sit on the circle of radius wc *)
      Alcotest.(check (float 0.01)) "unit circle" 1.0 (Complex.norm p /. wc))
    poles

let suite =
  [
    Alcotest.test_case "all validate" `Quick test_all_validate;
    Alcotest.test_case "all solvable" `Quick test_all_solvable;
    Alcotest.test_case "registry lookup" `Quick test_registry_lookup;
    Alcotest.test_case "tow-thomas response" `Quick test_tow_thomas_response;
    Alcotest.test_case "tow-thomas formulas" `Quick test_tow_thomas_formulas;
    Alcotest.test_case "tow-thomas symbolic" `Quick test_tow_thomas_symbolic;
    Alcotest.test_case "sallen-key lp" `Quick test_sallen_key_lp;
    Alcotest.test_case "sallen-key hp" `Quick test_sallen_key_hp;
    Alcotest.test_case "mfb bandpass" `Quick test_mfb_bandpass;
    Alcotest.test_case "khn taps" `Quick test_khn_taps;
    Alcotest.test_case "notch null" `Quick test_notch_null;
    Alcotest.test_case "sk cascade" `Quick test_cascade_order;
    Alcotest.test_case "tt pair" `Quick test_tt_pair;
    Alcotest.test_case "leapfrog shape" `Quick test_leapfrog_shape;
    Alcotest.test_case "leapfrog poles" `Quick test_leapfrog_poles_are_butterworth;
  ]

(* --- newer zoo members --- *)

let test_universal_notch () =
  let b = Circuits.Universal.make ~f0_hz:1000.0 () in
  Alcotest.(check int) "4 opamps" 4 (Circuits.Benchmark.opamp_count b);
  Alcotest.(check bool) "deep null at f0" true (magnitude b 1000.0 < 1e-6);
  Alcotest.(check (float 1e-3)) "dc passes" 1.0 (magnitude b 1.0);
  Alcotest.(check (float 1e-3)) "highs pass" 1.0 (magnitude b 1_000_000.0)

let test_universal_allpass () =
  let b = Circuits.Universal.make ~response:Circuits.Universal.Allpass () in
  List.iter
    (fun f ->
      Alcotest.(check (float 1e-6))
        (Printf.sprintf "|H| = 1 at %g Hz" f)
        1.0 (magnitude b f))
    [ 10.0; 300.0; 1000.0; 3300.0; 100_000.0 ];
  (* but the phase moves: it is not a wire *)
  let phase f =
    let h =
      Mna.Ac.transfer ~source:"Vin" ~output:"sum"
        b.Circuits.Benchmark.netlist ~omega:(2.0 *. Float.pi *. f)
    in
    atan2 h.Complex.im h.Complex.re
  in
  Alcotest.(check bool) "phase rotates" true
    (Float.abs (phase 1000.0 -. phase 10.0) > 1.0)

let test_wien_bandpass () =
  let b = Circuits.Wien.bandpass ~f0_hz:1000.0 ~gain:2.0 () in
  let at_f0 = magnitude b 1000.0 in
  Alcotest.(check bool) "peaks at f0" true
    (at_f0 > magnitude b 100.0 && at_f0 > magnitude b 10_000.0);
  (* stable: all poles in the left half plane *)
  let poles =
    Mna.Symbolic.poles ~source:"Vin" ~output:"out" b.Circuits.Benchmark.netlist
  in
  Array.iter
    (fun p -> Alcotest.(check bool) "stable" true (p.Complex.re < 0.0))
    poles

let test_wien_q_enhancement () =
  (* Q (peak sharpness) grows as the gain approaches 3 *)
  let peak_ratio gain =
    let b = Circuits.Wien.bandpass ~f0_hz:1000.0 ~gain () in
    magnitude b 1000.0 /. magnitude b 100.0
  in
  Alcotest.(check bool) "gain 2.8 sharper than gain 1.5" true
    (peak_ratio 2.8 > 2.0 *. peak_ratio 1.5);
  Alcotest.check_raises "oscillation limit"
    (Invalid_argument "Wien.bandpass: gain must stay below 3") (fun () ->
      ignore (Circuits.Wien.bandpass ~gain:3.0 ()))

let test_allpass_flat_magnitude () =
  let b = Circuits.Allpass.first_order () in
  List.iter
    (fun f -> Alcotest.(check (float 1e-9)) "unity magnitude" 1.0 (magnitude b f))
    [ 1.0; 100.0; 1000.0; 10_000.0; 1_000_000.0 ];
  (* H = (1 - sRC)/(1 + sRC): -90 degrees at f0 *)
  let h =
    Mna.Ac.transfer ~source:"Vin" ~output:"out" b.Circuits.Benchmark.netlist
      ~omega:(2.0 *. Float.pi *. 1000.0)
  in
  Alcotest.(check (float 1e-6)) "quadrature at f0" (-.Float.pi /. 2.0)
    (atan2 h.Complex.im h.Complex.re)

let test_allpass_needs_phase_criterion () =
  (* the R3 fault moves only phase: invisible to magnitude testing,
     caught by the phase criterion *)
  let b = Circuits.Allpass.first_order () in
  let probe = { Testability.Detect.source = "Vin"; output = "out" } in
  let grid = Testability.Grid.around ~points_per_decade:10 ~center_hz:1000.0 () in
  let fault = Fault.deviation ~element:"R3" 1.2 in
  let by_mag =
    List.hd
      (Testability.Detect.analyze
         ~criterion:(Testability.Detect.Fixed_tolerance 0.05)
         probe grid b.Circuits.Benchmark.netlist [ fault ])
  in
  Alcotest.(check bool) "magnitude blind" false by_mag.Testability.Detect.detectable;
  let by_phase =
    List.hd
      (Testability.Detect.analyze
         ~criterion:(Testability.Detect.Phase_fixed 0.05)
         probe grid b.Circuits.Benchmark.netlist [ fault ])
  in
  Alcotest.(check bool) "phase sees it" true by_phase.Testability.Detect.detectable

let suite =
  suite
  @ [
      Alcotest.test_case "universal notch" `Quick test_universal_notch;
      Alcotest.test_case "universal allpass" `Quick test_universal_allpass;
      Alcotest.test_case "wien bandpass" `Quick test_wien_bandpass;
      Alcotest.test_case "wien q enhancement" `Quick test_wien_q_enhancement;
      Alcotest.test_case "allpass flat magnitude" `Quick test_allpass_flat_magnitude;
      Alcotest.test_case "allpass needs phase" `Quick test_allpass_needs_phase_criterion;
    ]
