(** Quantitative test time — turning the paper's 2nd-order objective
    from a proxy (configuration count) into seconds.

    A measurement at (configuration, frequency) costs: settling after
    the configuration switch (the emulated circuit's dominant time
    constant, from the symbolic poles), plus a number of stimulus
    periods for the amplitude measurement. Configurations are visited
    in order, so the settle cost is paid once per configuration, not
    per frequency. Marginal or unstable configurations (poles at or
    right of the imaginary axis) get a fallback settle time — a real
    tester would use a bounded burst there.

    Settling runs to 7 time constants, each measurement takes 5
    stimulus periods, a configuration switch costs 1 ms per flipped
    selection bit and the fallback settle time is 10 ms. *)

val compare_sets : Pipeline.t -> int list list -> (int list * float) list
(** For each candidate configuration set: the estimated time of its
    minimal measurement schedule. Sorted fastest first — a quantitative
    re-ranking of the paper's 2nd-order ties. *)
