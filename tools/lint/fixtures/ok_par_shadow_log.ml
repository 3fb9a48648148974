(* expect: none *)
(* A shadowed kernel phase: each item logs the slots it writes into its
   worker's recording buffer, either through a let-bound alias or by
   indexing the buffer table with the worker parameter, and hands the
   log over after the item. A worker runs one item at a time, so the
   buffer is worker-owned and the stores never collide. *)

let scatter ?shadow pool ~n ~(logs : int array array) ~(off : int array) (slot_of : int array)
    (acc : float array) =
  Par_exec.iter ?shadow pool ~n (fun w p ->
      let log = logs.(w) in
      let logged = ref 0 in
      for e = off.(p) to off.(p + 1) - 1 do
        let slot = slot_of.(e) in
        log.(!logged) <- slot;
        logs.(w).(!logged) <- slot;
        incr logged;
        acc.(slot) <- acc.(slot) +. 1.0
      done)
