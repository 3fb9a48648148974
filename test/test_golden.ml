(* Tier-1 slices of the golden corpora (test/golden). The engine slice:
   every engine under every perturbation on roadnet_pa and youtube, one
   partitioner, clusters (i) and (iv), each reproducing its committed
   trace, event-stream and value digests bit for bit. The workload
   slice: the first cases of the workload corpus, each reproducing its
   committed report and event-stream digests, and reproducing the same
   report digest again with telemetry off. golden_grid.exe and
   workload_grid.exe check the full corpora. The spec-parser table is
   cheap, so every row of it is checked here. *)

module C = Golden_corpus
module W = Workload_corpus

let case c =
  Alcotest.test_case (C.key c) `Quick (fun () ->
      match C.check c with None -> () | Some why -> Alcotest.fail why)

let workload_case (c : W.case) =
  Alcotest.test_case c.W.key `Quick (fun () ->
      match W.check c with None -> () | Some why -> Alcotest.fail why)

let untraced_case (c : W.case) =
  Alcotest.test_case (c.W.key ^ " untraced") `Quick (fun () ->
      match W.check_untraced c with None -> () | Some why -> Alcotest.fail why)

let suite =
  List.map case C.fast_slice
  @ List.map workload_case W.fast_slice
  @ List.map untraced_case W.fast_slice
  @ [
      Alcotest.test_case "spec-parser table" `Quick (fun () ->
          match Spec_corpus.check () with
          | [] -> ()
          | problems -> Alcotest.fail (String.concat "\n" problems));
    ]
