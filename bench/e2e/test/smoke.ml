(* Smoke test of the wall-clock benchmark at toy sizes, in this
   process. Every workload runs traced: that run also makes an untraced
   pass, and fails on any unit whose traced output digests differently,
   so it checks that the mirrors (the re-traced Run.run loop, the
   telemetry-on engine, the in-process chaos scenario) stay faithful.
   The untraced reporting path does not depend on the workload; one
   cheap workload runs it. Both outputs are checked against the names
   and units in BENCHMARK.json. *)

module E = Cutfit_e2e
module Json = Cutfit.Json

let toy =
  {
    E.Workloads.repro_datasets = [ "roadnet_pa" ];
    repro_partitioners =
      [ Cutfit.Partitioner.Hash Cutfit.Strategy.Rvc; Cutfit.Partitioner.Hash Cutfit.Strategy.Dc ];
    repro_algos = [ Cutfit_experiments.Run.Pagerank; Cutfit_experiments.Run.Triangle_count ];
    churn_datasets = [ "roadnet_pa" ];
    churn_granularities = [ 64 ];
    mutate_jobs = 4;
    chaos_templates = [ "algo=CC;data=roadnet_pa;jobs=1;mix=reuse-heavy" ];
    kernel_edges = 20_000;
    triangle_edges = 20_000;
  }

let benchmark =
  match Json.of_string (In_channel.with_open_text "../../../BENCHMARK.json" In_channel.input_all) with
  | Ok j -> j
  | Error e -> failwith ("BENCHMARK.json: " ^ e)

let field name j = Option.get (Json.member name j)
let str name j = Option.get (Json.to_string_opt (field name j))

(* (name, unit) of every metric in one section of BENCHMARK.json. *)
let section name =
  List.map (fun m -> (str "name" m, str "unit" m)) (Option.get (Json.to_list (field name benchmark)))

let names_of xs = List.sort compare (List.map fst xs)

let check_output ~expected text =
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' text) in
  let printed =
    List.filter_map
      (fun l ->
        if l.[0] = '#' || l.[0] = '{' then None
        else
          match String.split_on_char ' ' l with
          | [ name; value; unit ] ->
              Alcotest.(check (option string)) ("unit of " ^ name) (Some unit) (List.assoc_opt name expected);
              ignore (float_of_string value);
              Some (name, unit)
          | _ -> Alcotest.failf "malformed metric line %S" l)
      lines
  in
  Alcotest.(check (list string)) "every metric printed" (names_of expected) (names_of printed);
  let last = List.nth lines (List.length lines - 1) in
  match Json.of_string last with
  | Error e -> Alcotest.failf "last line is not JSON (%s): %S" e last
  | Ok j ->
      Alcotest.(check (option bool)) "correct" (Some true) (Json.to_bool (field "correct" j));
      Alcotest.(check bool) "attempted >= 1" true (Option.get (Json.to_int (field "attempted" j)) >= 1);
      Alcotest.(check (option int)) "failed" (Some 0) (Json.to_int (field "failed" j));
      let metrics =
        match field "metrics" j with Json.Obj kvs -> kvs | _ -> Alcotest.fail "metrics is not an object"
      in
      Alcotest.(check (list string)) "JSON metrics" (names_of expected) (names_of metrics);
      List.iter
        (fun (name, m) ->
          Alcotest.(check (option string)) ("JSON unit of " ^ name) (List.assoc_opt name expected)
            (Json.to_string_opt (field "unit" m));
          Alcotest.(check bool) (name ^ " is a number") true (Option.is_some (Json.to_float (field "value" m))))
        metrics

let run w ~trace =
  let buf = Buffer.create 4096 in
  let out = Format.formatter_of_buffer buf in
  let r = E.Bench.run ~out ~golden:None w toy ~seed:1 ~seconds:0.0 ~trace in
  check_output ~expected:(section (if trace then "per_layer" else "end_to_end")) (Buffer.contents buf);
  r

let workload_case (w : E.Workloads.t) =
  Alcotest.test_case w.E.Workloads.name `Quick (fun () ->
      let traced = run w ~trace:true in
      if String.equal w.E.Workloads.name "repro" then
        Alcotest.(check string) "units concatenate to one Run.run" (E.Workloads.repro_digest toy)
          traced.E.Bench.digest)

let untraced () = ignore (run (Option.get (E.Workloads.find "kernels")) ~trace:false)

let names () =
  Alcotest.(check (list string)) "workloads"
    (List.sort compare (List.map (fun w -> w.E.Workloads.name) E.Workloads.all))
    (List.sort compare
       (List.map (str "name") (Option.get (Json.to_list (field "workloads" benchmark)))));
  Alcotest.(check (list (pair string string))) "end_to_end" (List.sort compare E.Bench.end_to_end)
    (List.sort compare (section "end_to_end"));
  Alcotest.(check (list (pair string string))) "per_layer" (List.sort compare E.Bench.per_layer)
    (List.sort compare (section "per_layer"))

(* chaos first: it forks, and OCaml 5.1 refuses fork once a domain has
   spawned. *)
let () =
  let chaos, rest = List.partition (fun w -> String.equal w.E.Workloads.name "chaos") E.Workloads.all in
  Alcotest.run "cutfit-e2e"
    [
      ( "format",
        [
          Alcotest.test_case "BENCHMARK.json names" `Quick names;
          Alcotest.test_case "untraced report" `Quick untraced;
        ] );
      ("workloads", List.map workload_case (chaos @ rest));
    ]
