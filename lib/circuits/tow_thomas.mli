(** The Tow–Thomas biquadratic filter — the paper's case-study circuit
    (Figure 1): three opamps, six resistors R1–R6 and two capacitors
    C1, C2.

    Topology (standard Tow–Thomas):
    - OP1 is a lossy inverting integrator: input through R1, feedback
      C1 ∥ R2 (damping), plus global feedback from OP3's output through
      R3.
    - OP2 is an inverting integrator: input through R4, feedback C2.
    - OP3 is a unity-scale inverter: input through R5, feedback R6.

    The lowpass transfer function at OP2's output is
    H(s) = (1/(R1 R4 C1 C2)) / (s² + s/(R2 C1) + R6/(R3 R4 R5 C1 C2)),
    so ω₀² = R6/(R3 R4 R5 C1 C2) and Q = ω₀ R2 C1. *)

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

val params_for : ?q:float -> ?gain:float -> f0_hz:float -> unit -> params
(** Equal-R/equal-C design for a given centre frequency, quality factor
    (default 1) and DC gain (default 1). *)

type output_tap = Lowpass  (** OP2's output (node "v2"). *)
                | Bandpass  (** OP1's output (node "v1"). *)
                | Inverted_lowpass  (** OP3's output (node "v3"). *)

val make : ?params:params -> ?tap:output_tap -> unit -> Benchmark.t
(** The biquad driven by source "Vin" at node "in"; opamps are named
    OP1, OP2, OP3 in chain order. Default tap: {!Lowpass}. Default
    params: [params_for ~f0_hz:1000. ()] — f₀ = 1 kHz, Q ≈ 1, unity DC
    gain, R = 15.915 kΩ all around, C = 10 nF. *)
