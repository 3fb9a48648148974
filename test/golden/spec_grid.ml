(* The pinned spec table: every compact-spec parser over its corpus.

     dune exec test/golden/spec_grid.exe            check every row, exit 1 on a mismatch
     dune exec test/golden/spec_grid.exe -- --print  print a fresh Spec_table module *)

module C = Spec_corpus

let print () =
  print_string
    "(* Committed spec-parser rows: (dsl, input, outcome).\n\
    \   Regenerate with: dune exec test/golden/spec_grid.exe -- --print *)\n\n\
     let rows =\n\
    \  [\n";
  List.iter (fun c -> print_endline (C.table_row c)) C.cases;
  print_string "  ]\n"

let check () =
  let problems = C.check () in
  List.iter prerr_endline problems;
  Printf.printf "spec table: %d row(s), %s\n" (List.length C.cases)
    (match List.length problems with 0 -> "all match" | n -> Printf.sprintf "%d mismatch(es)" n);
  if problems <> [] then exit 1

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [] -> check ()
  | [ "--print" ] -> print ()
  | _ ->
      prerr_endline "usage: spec_grid.exe [--print]";
      exit 2
