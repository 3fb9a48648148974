(* expect: none *)
(* The use site that makes bad_stale_waiver.mli's waiver stale. *)

let twice x = Bad_stale_waiver.still_used (Bad_stale_waiver.still_used x)
