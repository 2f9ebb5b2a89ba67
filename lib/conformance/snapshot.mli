(** Golden snapshots: the paper's published Tow-Thomas tables and our
    simulated reproduction of them, rendered to canonical JSON and
    byte-compared against versioned files.

    Rendering is deterministic on a given platform/code state
    ({!Report.Json} prints integral floats without a fraction and
    everything else through [%.17g]), so any drift — a changed
    published constant, an optimizer regression, a numeric change in
    the campaign engine — fails the comparison at the byte level. The
    companion test refuses to pass until the snapshot is regenerated
    deliberately via [mcdft fuzz --update-snapshots]. *)

val check : dir:string -> (unit, string) result
(** Render every snapshot and byte-compare against [dir]. [Error]
    lists each missing or drifted file. Raises [Sys_error] naming [dir]
    when [dir] itself is not a directory (a run from outside the
    repository root), instead of reporting every file missing. *)

val update : dir:string -> string list
(** (Re)write every snapshot under [dir] (created if needed); returns
    the paths written. *)
