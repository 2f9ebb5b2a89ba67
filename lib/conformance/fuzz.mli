(** The differential fuzzing campaign: generate → check every oracle →
    shrink and persist failures.

    Determinism contract: case [i] of a campaign with base seed [S] is
    always the subject [Gen.generate families.(i mod n) ~seed:(S + i)],
    and every oracle verdict is a pure function of the subject — so two
    campaigns with the same seed agree case-by-case regardless of
    wall-clock budget (a budget only truncates the sequence earlier)
    or of the [--jobs] setting of the enclosing CLI (cases run
    sequentially; parallelism is exercised {e inside} the
    jobs-invariance oracle, never across cases). *)

type config = {
  seed : int;
  budget_s : float option;  (** Wall-clock stop condition. *)
  max_cases : int option;  (** Exact-count stop condition (deterministic reports). *)
  families : Gen.family list;  (** Rotation ([mcdft fuzz]'s default: {!Gen.families}). *)
  oracles : Oracle.t list;  (** [mcdft fuzz]'s default: {!Oracle.all}. *)
  shrink_dir : string option;  (** Where failure repros are written. *)
  log : string -> unit;  (** Progress sink (one line per event). *)
}

type failure = {
  case : int;
  oracle : string;
  message : string;  (** Failure message on the {e original} subject. *)
  subject : Gen.subject;
  shrunk : Gen.subject;
  repro : (string * string) option;  (** [(cir, json)] paths when persisted. *)
}

type outcome = {
  cases : int;  (** Cases completed. *)
  checks : int;  (** Oracle verdicts collected. *)
  passes : int;
  skips : int;
  failures : failure list;  (** In case order. *)
}

val run : config -> outcome
(** Stops at whichever of [budget_s]/[max_cases] hits first (at least
    one case always runs). A failing (subject, oracle) pair is
    minimized with {!Shrink.minimize} before being reported, and
    persisted under [shrink_dir] when set. *)

val summary : outcome -> string
(** Human-readable one-paragraph summary, stable across runs with the
    same verdicts (no timings). *)
