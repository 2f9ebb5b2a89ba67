(** Span-based phase timing with a Chrome-trace-format JSON exporter.

    Disabled (the default), every operation is a no-op behind one
    atomic load. Enabled, each completed span records one "complete"
    event tagged with its domain id, so a multi-domain campaign shows
    one lane per worker — scheduler idle is the gap between spans on a
    lane. Load the exported file in [chrome://tracing] or
    {{:https://ui.perfetto.dev}Perfetto}. *)

type event = { name : string; ts_us : float; dur_us : float; tid : int }
(** One completed span: microseconds since process start, duration,
    and the owning domain's id. *)

val set_enabled : bool -> unit

val span : string -> (unit -> 'a) -> 'a
(** [span name f] times [f ()] as one event (recorded even on raise);
    nests by call structure. Exactly [f ()] when disabled. *)

val begin_ : string -> unit
(** Open a span on this domain's stack — for phases that do not fit a
    closure. Must be closed by {!end_} on the same domain. *)

val end_ : unit -> unit
(** Close the innermost {!begin_} span; no-op on an empty stack. *)

val events : unit -> event list
(** All completed spans from every domain, sorted by start time. *)

val write : string -> unit
(** Write the Chrome trace-event JSON document for {!events} to a
    file. *)

val reset : unit -> unit
(** Drop all recorded events and any open begin/end stacks. *)
