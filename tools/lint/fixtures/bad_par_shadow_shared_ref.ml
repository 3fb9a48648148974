(* expect: par-shared-mutation *)
(* A [?shadow] phase is analysed like any other: counting the logged
   slots in one captured ref races across domains. *)

let scatter ?shadow pool ~n ~(off : int array) =
  let logged = ref 0 in
  Par_exec.iter ?shadow pool ~n (fun _w p -> logged := !logged + off.(p + 1) - off.(p));
  !logged
