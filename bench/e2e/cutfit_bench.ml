(* cutfit_bench.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]

   Runs one workload of the wall-clock benchmark in this process and
   prints its metrics, one "name value unit" line each, then one JSON
   object as the last line. Exit code 0 when every output checked out,
   1 when one did not, 2 on a usage error. With --trace 1 the spans are
   also written to e2e-trace-<workload>.jsonl in the working
   directory. *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 15.0 and trace = ref 0 in
  let usage =
    Printf.sprintf "cutfit_bench.exe --workload {%s} [--seed N] [--seconds S] [--trace 0|1]"
      (String.concat "|" (List.map (fun w -> w.Cutfit_e2e.Workloads.name) Cutfit_e2e.Workloads.all))
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S time to spend on timed passes (default 15)");
      ("--trace", Arg.Set_int trace, "0|1 traced run: per-layer metrics instead (default 0)");
    ]
    (fun arg -> raise (Arg.Bad ("unexpected argument " ^ arg)))
    usage;
  match Cutfit_e2e.Workloads.find !workload with
  | None ->
      prerr_endline usage;
      exit 2
  | Some _ when !trace <> 0 && !trace <> 1 ->
      prerr_endline usage;
      exit 2
  | Some w ->
      let trace = !trace = 1 in
      let r =
        Cutfit_e2e.Bench.run
          ?trace_out:(if trace then Some (Printf.sprintf "e2e-trace-%s.jsonl" !workload) else None)
          ~golden:(Cutfit_e2e.Golden.find ~workload:!workload ~seed:!seed)
          w Cutfit_e2e.Workloads.full ~seed:!seed ~seconds:!seconds ~trace
      in
      exit (if r.Cutfit_e2e.Bench.correct then 0 else 1)
