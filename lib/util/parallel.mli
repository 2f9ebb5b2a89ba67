(** A work-stealing scheduler over OCaml domains.

    Each worker (the calling domain plus [jobs - 1] helpers) owns a
    range of indices packed into a single atomic; the owner pops small
    chunks off the front of its own range — an uncontended CAS in the
    common case — and when it runs dry it steals the back half of the
    largest remaining range. Dynamic migration balances uneven
    per-index work (the classic failure mode of static striping on
    fault-simulation campaigns, where one view can be much more
    expensive than another) without funnelling every claim through one
    shared cursor.

    The body must be safe to run concurrently for distinct indices —
    the usual pattern is "each index writes its own slot of a
    pre-allocated array", which needs no further synchronization. *)

val sequential_cutoff_ns : float
(** Workloads whose [est_ns] falls below this run inline on the
    calling domain: spawning helpers costs ~100µs each plus a GC-sync
    tax for their lifetime, which swamps small campaigns (the
    tow-thomas smoke campaign was {e slower} at jobs=4 than jobs=1
    before this cutoff existed). *)

val for_ : ?jobs:int -> ?est_ns:float -> int -> (int -> unit) -> unit
(** [for_ ~jobs n f] runs [f i] for every [i] in [0 .. n-1].
    [jobs <= 1] (the default) runs sequentially in the calling domain,
    in index order; [jobs] is clamped to
    [Domain.recommended_domain_count ()], since more domains than
    cores make every stop-the-world GC sync wait on a descheduled
    worker.

    [est_ns] is the caller's estimate of the {e total} work in the
    loop, in nanoseconds. When it is below {!sequential_cutoff_ns} the
    loop runs inline — sequentially, in index order — regardless of
    [jobs]. It also sizes the owner chunk: chunks target ~1 ms of
    estimated work each (clamped so every worker's initial slice still
    splits into at least 4 chunks for thieves), so cheap indexes are
    claimed in bulk instead of one CAS each. Callers that can size
    their work should pass it; omitting it preserves the old
    always-spawn, 8-chunks-per-worker behavior.

    If [f] raises — in the calling domain or in a helper — every range
    is drained (workers stop claiming new chunks; chunks and stolen
    ranges already claimed finish), every helper domain is joined, and
    then the exception recorded by the lowest-indexed failing worker
    is re-raised with its backtrace. No helper is ever left running
    against the shared buffers.

    When {!Obs.Metrics} is enabled, each worker counts the chunks it
    claimed ([parallel.chunks]), its successful steals
    ([parallel.steals]) and its busy wall-clock
    ([parallel.worker_busy_s]); each worker's drain is an
    {!Obs.Trace} span ([parallel.worker]), so scheduler idle shows as
    gaps between lanes in the exported trace. *)

val map : ?jobs:int -> ?est_ns:float -> int -> (int -> 'a) -> 'a array
(** [map ~jobs n f] is [| f 0; ...; f (n-1) |], computed like {!for_}.
    The result is deterministic: slot [i] always holds [f i]. *)
