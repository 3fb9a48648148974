(* Full workload golden corpus: every hand case and the workload phases
   of the first chaos scenarios of campaign seed 1.

     dune exec test/golden/workload_grid.exe            check every case, exit 1 on a mismatch
     dune exec test/golden/workload_grid.exe -- --print  print a fresh Workload_table module *)

module C = Workload_corpus

let print () =
  print_string
    "(* Committed workload digests: (case key, report, events).\n\
    \   Regenerate with: dune exec test/golden/workload_grid.exe -- --print *)\n\n\
     let digests =\n\
    \  [\n";
  List.iter (fun c -> print_endline (C.table_row c (C.run_case c))) C.cases;
  print_string "  ]\n"

let check () =
  let failures = List.filter_map C.check C.cases in
  List.iter prerr_endline failures;
  Printf.printf "workload corpus: %d case(s), %s\n" (List.length C.cases)
    (match List.length failures with 0 -> "all digests match" | n -> Printf.sprintf "%d mismatch(es)" n);
  if failures <> [] then exit 1

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [] -> check ()
  | [ "--print" ] -> print ()
  | _ ->
      prerr_endline "usage: workload_grid.exe [--print]";
      exit 2
