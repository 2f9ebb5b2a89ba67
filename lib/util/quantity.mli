(** Engineering-notation values, as used in SPICE netlists.

    Supports the classical suffixes: f, p, n, u, m, k, meg, g, t
    (case-insensitive), e.g. ["10k"] = 1e4, ["2.2u"] = 2.2e-6,
    ["1meg"] = 1e6. Trailing unit letters after the suffix are ignored,
    as in SPICE (["10kOhm"] parses as 1e4). *)

val parse : string -> (float, string) result
(** Parse an engineering-notation value; [Error msg] on malformed
    input. *)

val to_string : float -> string
(** Render a value using the closest engineering suffix, e.g.
    [to_string 4700.0 = "4.7k"]. Values outside the suffix range fall
    back to scientific notation. *)
