(* expect: unused-export *)
(* A waiver on an export that is referenced after all (here by
   ok_stale_waiver_user.ml) is stale: it would outlive its reason, so the
   linter reports it, and the report itself cannot be waived. *)

(* lint: unused-export -- only kept for embedders *)
val still_used : int -> int
