module Netlist = Circuit.Netlist
module Element = Circuit.Element

let divider () =
  Netlist.empty ~title:"divider" ()
  |> Netlist.vsource ~name:"V1" "in" "0" 1.0
  |> Netlist.resistor ~name:"R1" "in" "out" 1000.0
  |> Netlist.resistor ~name:"R2" "out" "0" 3000.0

let rc_lowpass ~r ~c () =
  Netlist.empty ~title:"rc lowpass" ()
  |> Netlist.vsource ~name:"V1" "in" "0" 1.0
  |> Netlist.resistor ~name:"R1" "in" "out" r
  |> Netlist.capacitor ~name:"C1" "out" "0" c

let inverting_amp ~r1 ~r2 () =
  Netlist.empty ~title:"inverting amplifier" ()
  |> Netlist.vsource ~name:"V1" "in" "0" 1.0
  |> Netlist.resistor ~name:"R1" "in" "minus" r1
  |> Netlist.resistor ~name:"R2" "minus" "out" r2
  |> Netlist.opamp ~name:"OP1" ~inp:"0" ~inn:"minus" ~out:"out"

let test_divider_dc () =
  (* nominal sources at omega = 0: the DC operating point *)
  let sol = Mna.Ac.solve (divider ()) ~omega:0.0 in
  Alcotest.(check (float 1e-9)) "vout" 0.75 (Mna.Ac.voltage sol "out").Complex.re;
  Alcotest.(check (float 1e-9)) "vin" 1.0 (Mna.Ac.voltage sol "in").Complex.re;
  (* branch current of V1: 1 V across 4 kOhm, flowing out of + *)
  Alcotest.(check (float 1e-12)) "i(V1)" (-0.00025) (Mna.Ac.current sol "V1").Complex.re

let test_divider_ac () =
  (* frequency independent *)
  let h = Mna.Ac.transfer ~source:"V1" ~output:"out" (divider ()) ~omega:1234.0 in
  Alcotest.(check (float 1e-9)) "magnitude" 0.75 (Complex.norm h)

let test_rc_corner () =
  let r = 1000.0 and c = 1e-6 in
  let n = rc_lowpass ~r ~c () in
  let wc = 1.0 /. (r *. c) in
  let h = Mna.Ac.transfer ~source:"V1" ~output:"out" n ~omega:wc in
  Alcotest.(check (float 1e-9)) "corner magnitude" (1.0 /. sqrt 2.0) (Complex.norm h);
  Alcotest.(check (float 1e-9)) "corner phase" (-.Float.pi /. 4.0)
    (atan2 h.Complex.im h.Complex.re);
  let dc = Mna.Ac.transfer ~source:"V1" ~output:"out" n ~omega:0.0 in
  Alcotest.(check (float 1e-9)) "dc gain" 1.0 (Complex.norm dc);
  let high = Mna.Ac.transfer ~source:"V1" ~output:"out" n ~omega:(1000.0 *. wc) in
  Alcotest.(check (float 1e-4)) "-60dB at 1000 wc" 0.001 (Complex.norm high)

let test_inverting_amp () =
  let h =
    Mna.Ac.transfer ~source:"V1" ~output:"out" (inverting_amp ~r1:1000.0 ~r2:4700.0 ())
      ~omega:100.0
  in
  Alcotest.(check (float 1e-9)) "gain" 4.7 (Complex.norm h);
  Alcotest.(check (float 1e-9)) "inversion" (-4.7) h.Complex.re

let test_integrator () =
  (* ideal inverting integrator: H = -1/(s R C) *)
  let r = 10_000.0 and c = 100e-9 in
  let n =
    Netlist.empty ~title:"integrator" ()
    |> Netlist.vsource ~name:"V1" "in" "0" 1.0
    |> Netlist.resistor ~name:"R1" "in" "minus" r
    |> Netlist.capacitor ~name:"C1" "minus" "out" c
    |> Netlist.opamp ~name:"OP1" ~inp:"0" ~inn:"minus" ~out:"out"
  in
  let w = 2.0 *. Float.pi *. 1000.0 in
  let h = Mna.Ac.transfer ~source:"V1" ~output:"out" n ~omega:w in
  Alcotest.(check (float 1e-6)) "magnitude" (1.0 /. (w *. r *. c)) (Complex.norm h);
  (* -1/(s R C) at s = jw is purely imaginary positive: +j/(w R C) *)
  Alcotest.(check (float 1e-9)) "real part" 0.0 h.Complex.re;
  Alcotest.(check bool) "positive imaginary" true (h.Complex.im > 0.0)

let test_rl_divider () =
  (* series R then L to ground: |H| = wL / sqrt(R^2 + (wL)^2) *)
  let r = 50.0 and l = 1e-3 in
  let n =
    Netlist.empty ~title:"rl" ()
    |> Netlist.vsource ~name:"V1" "in" "0" 1.0
    |> Netlist.resistor ~name:"R1" "in" "out" r
    |> Netlist.inductor ~name:"L1" "out" "0" l
  in
  let w = r /. l in
  let h = Mna.Ac.transfer ~source:"V1" ~output:"out" n ~omega:w in
  Alcotest.(check (float 1e-9)) "corner" (1.0 /. sqrt 2.0) (Complex.norm h);
  let dc = Mna.Ac.transfer ~source:"V1" ~output:"out" n ~omega:0.0 in
  Alcotest.(check (float 1e-12)) "inductor shorts dc" 0.0 (Complex.norm dc)

let test_vcvs () =
  let n =
    Netlist.empty ~title:"vcvs" ()
    |> Netlist.vsource ~name:"V1" "in" "0" 1.0
    |> Netlist.resistor ~name:"R1" "in" "0" 1000.0
    |> Netlist.add
         (Element.Vcvs { name = "E1"; npos = "out"; nneg = "0"; cpos = "in"; cneg = "0"; gain = 2.5 })
    |> Netlist.resistor ~name:"RL" "out" "0" 500.0
  in
  let h = Mna.Ac.transfer ~source:"V1" ~output:"out" n ~omega:0.0 in
  Alcotest.(check (float 1e-9)) "gain" 2.5 h.Complex.re

let test_vccs () =
  (* gm into a load resistor: vout = -gm * vin * RL (current leaves npos) *)
  let n =
    Netlist.empty ~title:"vccs" ()
    |> Netlist.vsource ~name:"V1" "in" "0" 1.0
    |> Netlist.add
         (Element.Vccs { name = "G1"; npos = "out"; nneg = "0"; cpos = "in"; cneg = "0"; gm = 0.002 })
    |> Netlist.resistor ~name:"RL" "out" "0" 1000.0
  in
  let h = Mna.Ac.transfer ~source:"V1" ~output:"out" n ~omega:0.0 in
  Alcotest.(check (float 1e-9)) "transimpedance" (-2.0) h.Complex.re

let test_current_sensing () =
  (* CCCS mirrors the current through V2 (a 0 V ammeter) into a load. *)
  let n =
    Netlist.empty ~title:"cccs" ()
    |> Netlist.vsource ~name:"V1" "in" "0" 1.0
    |> Netlist.resistor ~name:"R1" "in" "x" 1000.0
    |> Netlist.vsource ~name:"V2" "x" "0" 0.0
    |> Netlist.add
         (Element.Cccs { name = "F1"; npos = "out"; nneg = "0"; vsense = "V2"; gain = 2.0 })
    |> Netlist.resistor ~name:"RL" "out" "0" 1000.0
  in
  (* i(V2) = 1 V / 1 kOhm = 1 mA flowing + to -; F1 pushes 2 mA out of node out *)
  let sol = Mna.Ac.solve ~sources:(Mna.Assemble.Only "V1") n ~omega:0.0 in
  let iv2 = Mna.Ac.current sol "V2" in
  Alcotest.(check (float 1e-9)) "sensed current" 0.001 iv2.Complex.re;
  let vout = Mna.Ac.voltage sol "out" in
  Alcotest.(check (float 1e-9)) "mirrored" (-2.0) vout.Complex.re

let test_ccvs () =
  let n =
    Netlist.empty ~title:"ccvs" ()
    |> Netlist.vsource ~name:"V1" "in" "0" 1.0
    |> Netlist.resistor ~name:"R1" "in" "x" 1000.0
    |> Netlist.vsource ~name:"V2" "x" "0" 0.0
    |> Netlist.add
         (Element.Ccvs { name = "H1"; npos = "out"; nneg = "0"; vsense = "V2"; r = 5000.0 })
    |> Netlist.resistor ~name:"RL" "out" "0" 1000.0
  in
  let sol = Mna.Ac.solve ~sources:(Mna.Assemble.Only "V1") n ~omega:0.0 in
  let vout = Mna.Ac.voltage sol "out" in
  (* v(out) = r * i(V2) = 5000 * 1 mA = 5 V *)
  Alcotest.(check (float 1e-9)) "transresistance" 5.0 vout.Complex.re

let test_isource () =
  let n =
    Netlist.empty ~title:"isource" ()
    |> Netlist.add (Element.Isource { name = "I1"; npos = "0"; nneg = "out"; value = 0.001 })
    |> Netlist.resistor ~name:"R1" "out" "0" 2000.0
  in
  let sol = Mna.Ac.solve n ~omega:0.0 in
  (* 1 mA into node out through 2 kOhm -> 2 V *)
  Alcotest.(check (float 1e-9)) "ohm's law" 2.0 (Mna.Ac.voltage sol "out").Complex.re

let test_singular_detection () =
  (* node with no DC path and no defined voltage: two capacitors in series
     at omega = 0 leave the middle node floating *)
  let n =
    Netlist.empty ~title:"floating" ()
    |> Netlist.vsource ~name:"V1" "in" "0" 1.0
    |> Netlist.capacitor ~name:"C1" "in" "mid" 1e-6
    |> Netlist.capacitor ~name:"C2" "mid" "0" 1e-6
  in
  match Mna.Ac.transfer ~source:"V1" ~output:"mid" n ~omega:0.0 with
  | exception Mna.Ac.Singular_circuit _ -> ()
  | _ -> Alcotest.fail "expected Singular_circuit"

let test_superposition () =
  (* two sources drive a resistive summer; solution with both active equals
     the sum of single-source solutions *)
  let net v1 v2 =
    Netlist.empty ~title:"summer" ()
    |> Netlist.vsource ~name:"V1" "a" "0" v1
    |> Netlist.vsource ~name:"V2" "b" "0" v2
    |> Netlist.resistor ~name:"R1" "a" "out" 1000.0
    |> Netlist.resistor ~name:"R2" "b" "out" 2000.0
    |> Netlist.resistor ~name:"R3" "out" "0" 3000.0
  in
  let v_out sources netlist =
    (Mna.Ac.voltage (Mna.Ac.solve ~sources netlist ~omega:0.0) "out").Complex.re
  in
  let both = v_out Mna.Assemble.Nominal (net 2.0 3.0) in
  let only1 = v_out Mna.Assemble.Nominal (net 2.0 0.0) in
  let only2 = v_out Mna.Assemble.Nominal (net 0.0 3.0) in
  Alcotest.(check (float 1e-9)) "superposition" both (only1 +. only2)

let test_single_pole_opamp () =
  (* unity follower with a single-pole opamp: closed-loop pole near A0*wp *)
  let a0 = 1e5 and fp = 10.0 in
  let n =
    Netlist.empty ~title:"follower" ()
    |> Netlist.vsource ~name:"V1" "in" "0" 1.0
    |> Netlist.opamp
         ~model:(Element.Single_pole { dc_gain = a0; pole_hz = fp })
         ~name:"OP1" ~inp:"in" ~inn:"out" ~out:"out"
    |> Netlist.resistor ~name:"RL" "out" "0" 10_000.0
  in
  let dc = Mna.Ac.transfer ~source:"V1" ~output:"out" n ~omega:0.0 in
  Alcotest.(check (float 1e-4)) "dc follower" 1.0 (Complex.norm dc);
  (* at the closed-loop bandwidth a0*fp the gain is ~ -3 dB *)
  let w_unity = 2.0 *. Float.pi *. (a0 *. fp) in
  let h = Mna.Ac.transfer ~source:"V1" ~output:"out" n ~omega:w_unity in
  Alcotest.(check (float 0.02)) "-3dB at GBW" (1.0 /. sqrt 2.0) (Complex.norm h)

let test_sweep_matches_pointwise () =
  let n = rc_lowpass ~r:1000.0 ~c:1e-6 () in
  let freqs = Util.Floatx.logspace 1.0 1e5 21 in
  let sweep = Mna.Ac.sweep ~source:"V1" ~output:"out" n ~freqs_hz:freqs in
  Array.iteri
    (fun i f ->
      let h = Mna.Ac.transfer ~source:"V1" ~output:"out" n ~omega:(2.0 *. Float.pi *. f) in
      Alcotest.(check (float 1e-12)) "sweep point" (Complex.norm h) (Complex.norm sweep.(i)))
    freqs

let qcheck_divider_ratio =
  QCheck.Test.make ~name:"two-resistor divider matches formula" ~count:100
    QCheck.(pair (float_range 1.0 1e6) (float_range 1.0 1e6))
    (fun (r1, r2) ->
      let n =
        Netlist.empty ()
        |> Netlist.vsource ~name:"V1" "in" "0" 1.0
        |> Netlist.resistor ~name:"R1" "in" "out" r1
        |> Netlist.resistor ~name:"R2" "out" "0" r2
      in
      let h = Mna.Ac.transfer ~source:"V1" ~output:"out" n ~omega:0.0 in
      Util.Floatx.approx_eq ~rel:1e-9 (Complex.norm h) (r2 /. (r1 +. r2)))

let qcheck_rc_magnitude =
  QCheck.Test.make ~name:"RC lowpass magnitude matches 1/sqrt(1+(w rc)^2)" ~count:100
    QCheck.(triple (float_range 10.0 1e5) (float_range 1e-9 1e-5) (float_range 1.0 1e6))
    (fun (r, c, f) ->
      let n = rc_lowpass ~r ~c () in
      let w = 2.0 *. Float.pi *. f in
      let h = Mna.Ac.transfer ~source:"V1" ~output:"out" n ~omega:w in
      let expected = 1.0 /. sqrt (1.0 +. ((w *. r *. c) ** 2.0)) in
      Util.Floatx.approx_eq ~rel:1e-7 (Complex.norm h) expected)

let suite =
  [
    Alcotest.test_case "divider dc" `Quick test_divider_dc;
    Alcotest.test_case "divider ac" `Quick test_divider_ac;
    Alcotest.test_case "rc corner" `Quick test_rc_corner;
    Alcotest.test_case "inverting amp" `Quick test_inverting_amp;
    Alcotest.test_case "integrator" `Quick test_integrator;
    Alcotest.test_case "rl divider" `Quick test_rl_divider;
    Alcotest.test_case "vcvs" `Quick test_vcvs;
    Alcotest.test_case "vccs" `Quick test_vccs;
    Alcotest.test_case "cccs sensing" `Quick test_current_sensing;
    Alcotest.test_case "ccvs" `Quick test_ccvs;
    Alcotest.test_case "isource" `Quick test_isource;
    Alcotest.test_case "singular detection" `Quick test_singular_detection;
    Alcotest.test_case "superposition" `Quick test_superposition;
    Alcotest.test_case "single-pole opamp" `Quick test_single_pole_opamp;
    Alcotest.test_case "sweep = pointwise" `Quick test_sweep_matches_pointwise;
    QCheck_alcotest.to_alcotest qcheck_divider_ratio;
    QCheck_alcotest.to_alcotest qcheck_rc_magnitude;
  ]
