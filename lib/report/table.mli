(** Fixed-width ASCII tables for terminal reports. *)

val render : ?align_left_first:bool -> header:string list -> string list list -> string
(** Render rows under a header, padding every column to its widest
    cell. The first column is left-aligned when [align_left_first]
    (default true); all other cells are right-aligned. Raises
    [Invalid_argument] when a row's width differs from the header's. *)
