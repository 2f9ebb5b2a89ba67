module Netlist = Circuit.Netlist

let rc_lowpass ~r ~c () =
  Netlist.empty ~title:"rc lowpass" ()
  |> Netlist.vsource ~name:"V1" "in" "0" 1.0
  |> Netlist.resistor ~name:"R1" "in" "out" r
  |> Netlist.capacitor ~name:"C1" "out" "0" c

let test_rc_transfer () =
  let r = 1000.0 and c = 1e-6 in
  let h = Mna.Symbolic.transfer ~source:"V1" ~output:"out" (rc_lowpass ~r ~c ()) in
  (* H(s) = 1 / (1 + s R C) *)
  let expected =
    Linalg.Ratfunc.make Linalg.Poly.one (Linalg.Poly.of_coeffs [| 1.0; r *. c |])
  in
  Alcotest.(check bool) "H = 1/(1+sRC)" true (Linalg.Ratfunc.equal_at h expected)

let test_rc_pole () =
  let r = 1000.0 and c = 1e-6 in
  let poles = Mna.Symbolic.poles ~source:"V1" ~output:"out" (rc_lowpass ~r ~c ()) in
  Alcotest.(check int) "one pole" 1 (Array.length poles);
  Alcotest.(check (float 1.0)) "pole at -1/RC" (-1.0 /. (r *. c)) poles.(0).Complex.re

let test_symbolic_matches_numeric_sweep () =
  (* Sallen-Key style second-order section built from primitives; the
     symbolic transfer function must agree with the numeric AC solver on
     a wide grid. *)
  let n =
    Netlist.empty ~title:"twin-t-ish" ()
    |> Netlist.vsource ~name:"V1" "in" "0" 1.0
    |> Netlist.resistor ~name:"R1" "in" "a" 10_000.0
    |> Netlist.resistor ~name:"R2" "a" "out" 10_000.0
    |> Netlist.capacitor ~name:"C1" "a" "0" 10e-9
    |> Netlist.capacitor ~name:"C2" "out" "0" 4.7e-9
  in
  let h = Mna.Symbolic.transfer ~source:"V1" ~output:"out" n in
  let freqs = Util.Floatx.logspace 1.0 1e6 31 in
  let numeric = Mna.Ac.sweep ~source:"V1" ~output:"out" n ~freqs_hz:freqs in
  Array.iteri
    (fun i f ->
      let w = 2.0 *. Float.pi *. f in
      let sym = Test_ratfunc.eval_jw h w in
      let err = Complex.norm (Complex.sub sym numeric.(i)) in
      if err > 1e-6 *. Float.max 1e-3 (Complex.norm numeric.(i)) then
        Alcotest.fail (Printf.sprintf "mismatch at %g Hz: err %g" f err))
    freqs

let test_opamp_symbolic () =
  (* inverting amplifier: H = -R2/R1 exactly, independent of s *)
  let n =
    Netlist.empty ~title:"inverting" ()
    |> Netlist.vsource ~name:"V1" "in" "0" 1.0
    |> Netlist.resistor ~name:"R1" "in" "minus" 1000.0
    |> Netlist.resistor ~name:"R2" "minus" "out" 3300.0
    |> Netlist.opamp ~name:"OP1" ~inp:"0" ~inn:"minus" ~out:"out"
  in
  let h = Mna.Symbolic.transfer ~source:"V1" ~output:"out" n in
  Alcotest.(check bool) "H = -3.3" true
    (Linalg.Ratfunc.equal_at h (Linalg.Ratfunc.make (Linalg.Poly.of_coeffs [| -3.3 |]) Linalg.Poly.one))

let suite =
  [
    Alcotest.test_case "rc transfer" `Quick test_rc_transfer;
    Alcotest.test_case "rc pole" `Quick test_rc_pole;
    Alcotest.test_case "symbolic = numeric sweep" `Quick test_symbolic_matches_numeric_sweep;
    Alcotest.test_case "opamp symbolic" `Quick test_opamp_symbolic;
  ]
