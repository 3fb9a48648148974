(* Tier-1 slice of the golden-digest corpus (test/golden): every engine
   under every perturbation on roadnet_pa and youtube, one partitioner,
   clusters (i) and (iv). Each case must reproduce its committed trace,
   event-stream and value digests bit for bit; golden_grid.exe checks
   the full grid. *)

module C = Golden_corpus

let case c =
  Alcotest.test_case (C.key c) `Quick (fun () ->
      match C.check c with None -> () | Some why -> Alcotest.fail why)

let suite = List.map case C.fast_slice
