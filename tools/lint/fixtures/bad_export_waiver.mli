(* expect: unused-export *)
(* The unused-export rule takes no waiver: an unreferenced export is
   reported even with a reasoned waiver on the preceding line. *)

(* lint: unused-export — kept as a stable entry point for embedders *)
val entry : int -> int
