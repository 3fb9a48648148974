(* Full golden-digest grid: all six paper partitioners x clusters
   (i)-(iv) x both datasets x every engine and perturbation.

     dune exec test/golden/golden_grid.exe            check every case, exit 1 on a mismatch
     dune exec test/golden/golden_grid.exe -- --print  print a fresh Golden_table module *)

module C = Golden_corpus

let print () =
  print_string
    "(* Committed golden digests: (case key, trace, events, values).\n\
    \   Regenerate with: dune exec test/golden/golden_grid.exe -- --print *)\n\n\
     let digests =\n\
    \  [\n";
  List.iter (fun c -> print_endline (C.table_row c (C.run c))) C.full_grid;
  print_string "  ]\n"

let check () =
  let failures = List.filter_map C.check C.full_grid in
  List.iter prerr_endline failures;
  Printf.printf "golden grid: %d case(s), %s\n" (List.length C.full_grid)
    (match List.length failures with 0 -> "all digests match" | n -> Printf.sprintf "%d mismatch(es)" n);
  if failures <> [] then exit 1

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [] -> check ()
  | [ "--print" ] -> print ()
  | _ ->
      prerr_endline "usage: golden_grid.exe [--print]";
      exit 2
