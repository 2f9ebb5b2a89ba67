module Netlist = Circuit.Netlist

type params = {
  r1 : float;
  r2 : float;
  r3 : float;
  r4 : float;
  r5 : float;
  r6 : float;
  c1 : float;
  c2 : float;
}

let params_for ?(q = 1.0) ?(gain = 1.0) ~f0_hz () =
  if f0_hz <= 0.0 || q <= 0.0 || gain <= 0.0 then
    invalid_arg "Tow_thomas.params_for: parameters must be positive";
  let c = 10e-9 in
  let r = 1.0 /. (2.0 *. Float.pi *. f0_hz *. c) in
  (* With R3 = R4 = R5 = R6 = R and C1 = C2 = C: w0 = 1/(RC),
     Q = R2/R, DC gain = R/R1. *)
  { r1 = r /. gain; r2 = q *. r; r3 = r; r4 = r; r5 = r; r6 = r; c1 = c; c2 = c }

let default_params = params_for ~f0_hz:1000.0 ()

let f0_hz p =
  sqrt (p.r6 /. (p.r3 *. p.r4 *. p.r5 *. p.c1 *. p.c2)) /. (2.0 *. Float.pi)

type output_tap = Lowpass | Bandpass | Inverted_lowpass

let make ?(params = default_params) ?(tap = Lowpass) () =
  let p = params in
  let netlist =
    Netlist.empty ~title:"Tow-Thomas biquadratic filter" ()
    |> Netlist.vsource ~name:"Vin" "in" "0" 1.0
    (* stage 1: lossy integrator *)
    |> Netlist.resistor ~name:"R1" "in" "m1" p.r1
    |> Netlist.resistor ~name:"R2" "m1" "v1" p.r2
    |> Netlist.capacitor ~name:"C1" "m1" "v1" p.c1
    |> Netlist.resistor ~name:"R3" "v3" "m1" p.r3
    |> Netlist.opamp ~name:"OP1" ~inp:"0" ~inn:"m1" ~out:"v1"
    (* stage 2: integrator *)
    |> Netlist.resistor ~name:"R4" "v1" "m2" p.r4
    |> Netlist.capacitor ~name:"C2" "m2" "v2" p.c2
    |> Netlist.opamp ~name:"OP2" ~inp:"0" ~inn:"m2" ~out:"v2"
    (* stage 3: inverter *)
    |> Netlist.resistor ~name:"R5" "v2" "m3" p.r5
    |> Netlist.resistor ~name:"R6" "m3" "v3" p.r6
    |> Netlist.opamp ~name:"OP3" ~inp:"0" ~inn:"m3" ~out:"v3"
  in
  let output =
    match tap with Lowpass -> "v2" | Bandpass -> "v1" | Inverted_lowpass -> "v3"
  in
  {
    Benchmark.name = "tow-thomas";
    description =
      "Tow-Thomas biquadratic filter (paper Fig. 1): 3 opamps, R1-R6, C1-C2";
    netlist;
    source = "Vin";
    output;
    center_hz = f0_hz p;
  }
