(** A self-scheduling loop over OCaml domains.

    Every worker (the calling domain plus [jobs - 1] helpers) claims
    the next index from one shared atomic cursor and runs it, until
    the range is spent. The campaign's indices are coarse — one view
    or one sampled circuit each, milliseconds apiece — so a single
    [fetch_and_add] per index costs nothing next to the work, and an
    expensive index simply keeps its worker while the others drain the
    rest.

    The body must be safe to run concurrently for distinct indices —
    the usual pattern is "each index writes its own slot of a
    pre-allocated array", which needs no further synchronization. *)

val sequential_cutoff_ns : float
(** How long the calling domain runs indices inline before it spawns
    helpers: spawning costs ~100µs per domain plus a GC-sync tax for
    its lifetime, which swamps small loops (the tow-thomas smoke
    campaign was {e slower} at jobs=4 than jobs=1 before a cutoff
    existed). *)

val for_ : ?jobs:int -> int -> (int -> unit) -> unit
(** [for_ ~jobs n f] runs [f i] for every [i] in [0 .. n-1].
    [jobs <= 1] (the default) runs sequentially in the calling domain,
    in index order; [jobs] is clamped to
    [Domain.recommended_domain_count ()] and to [n], since more
    domains than cores make every stop-the-world GC sync wait on a
    descheduled worker.

    Otherwise the calling domain first runs indices inline, in order,
    until {!sequential_cutoff_ns} of wall clock ({!Obs.Metrics.now})
    has passed. A loop that finishes inside the cutoff never spawns a
    domain. Only if indices remain does it spawn the [jobs - 1]
    helpers and join them in claiming the rest from the cursor.

    If [f] raises in the inline phase, the exception propagates at
    once: no helper exists yet. If it raises after the spawn — in the
    calling domain or in a helper — the cursor is moved to the end
    (workers stop claiming; indices already claimed finish), every
    helper domain is joined, and then the exception recorded by the
    lowest-indexed failing worker is re-raised with its backtrace. No
    helper is ever left running against the shared buffers.

    When {!Obs.Metrics} is enabled and helpers were spawned, each
    worker records its busy wall clock from the spawn on
    ([parallel.worker_busy_s]); each worker's drain is an
    {!Obs.Trace} span ([parallel.worker]), so scheduler idle shows as
    gaps between lanes in the exported trace. *)

val map : ?jobs:int -> int -> (int -> 'a) -> 'a array
(** [map ~jobs n f] is [| f 0; ...; f (n-1) |], computed like {!for_}.
    The result is deterministic: slot [i] always holds [f i]. *)
