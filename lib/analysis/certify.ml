(* Only the shape the campaign benchmark compiles against
   ([Pipeline.t.certify]) is left of interval certification, which is
   retired (DESIGN §14); ROADMAP item 5 deletes it. [t] is private, so
   no value of it exists and [Pipeline.t.certify] is always [None]. *)

type stats = {
  points : int;
  points_proved : int;
  cells_proved : int;
  skipped_views : int;
}

type t = private { stats : stats }
