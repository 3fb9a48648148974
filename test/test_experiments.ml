module E = Cutfit_experiments
module Run = E.Run
module Report = E.Report
module Datasets = Cutfit_gen.Datasets
module Cluster = Cutfit_bsp.Cluster
module Partitioner = Cutfit_partition.Partitioner
module Strategy = Cutfit_partition.Strategy

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* --- Report helpers --- *)

let test_commas () =
  Alcotest.(check string) "millions" "12,345,678" (Cutfit_stats.Summary.commas 12_345_678);
  Alcotest.(check string) "small" "42" (Cutfit_stats.Summary.commas 42);
  Alcotest.(check string) "negative" "-1,000" (Cutfit_stats.Summary.commas (-1000))

let test_fsig () =
  Alcotest.(check string) "small" "1.23" (Report.fsig 1.234);
  Alcotest.(check string) "tens" "45.6" (Report.fsig 45.64);
  Alcotest.(check string) "big" "1,234" (Report.fsig 1234.2);
  Alcotest.(check string) "nan" "nan" (Report.fsig Float.nan)

let test_seconds () =
  Alcotest.(check string) "oom" "OOM" (Report.seconds Float.nan)

let test_table_alignment () =
  let t = Report.table ~header:[ "a"; "bb" ] ~rows:[ [ "ccc"; "d" ] ] in
  let lines = String.split_on_char '\n' t in
  checki "3 lines" 3 (List.length lines);
  (* All lines are padded to the same width. *)
  match lines with
  | [ h; r; d ] ->
      checki "rule matches header width" (String.length h) (String.length d);
      checki "rows padded to same width" (String.length h) (String.length r)
  | _ -> Alcotest.fail "unexpected shape"

(* --- A small real matrix: 1 dataset, 2 partitioners, 1 config --- *)

let small_opts =
  {
    Run.default_options with
    Run.datasets = [ Datasets.find "youtube" ];
    partitioners = [ Partitioner.Hash Strategy.Rvc; Partitioner.Hash Strategy.Two_d ];
    clusters = [ Cluster.config_i ];
    algos = [ Run.Pagerank; Run.Triangle_count ];
    sssp_sources = 1;
    progress = false;
  }

let measurements = lazy (Run.run small_opts)

let test_matrix_cell_count () =
  let ms = Lazy.force measurements in
  (* 1 dataset x 2 partitioners x 1 config x 2 algos. *)
  checki "cells" 4 (List.length ms)

let test_matrix_times_positive () =
  let ms = Lazy.force measurements in
  List.iter
    (fun m ->
      checkb "completed" true m.Run.completed;
      checkb "positive time" true (m.Run.time_s > 0.0))
    ms

let test_filter () =
  let ms = Lazy.force measurements in
  checki "PR cells" 2 (List.length (Run.filter ~algo:Run.Pagerank ms));
  checki "by dataset" 4 (List.length (Run.filter ~dataset:"youtube" ms));
  checki "none" 0 (List.length (Run.filter ~config:"(ii)" ms))

let test_correlations_computable () =
  let ms = Lazy.force measurements in
  let cs = E.Figures.correlations ms Run.Pagerank ~config:"(i)" in
  checki "five metrics" 5 (List.length cs);
  List.iter
    (fun (_, c) -> checkb "in range" true (Float.is_nan c || (c >= -1.0 && c <= 1.0)))
    cs

(* The figure block lists, under "best partitioner per dataset:", one
   [display partitioner time] row per dataset with a completed cell. *)
let test_best_partitioners () =
  let ms = Lazy.force measurements in
  let block = Format.asprintf "%t" (E.Figures.figure_algo ms Run.Pagerank ~metric:"CommCost") in
  let rec take_rows = function
    | l :: rest when String.starts_with ~prefix:"  " l -> l :: take_rows rest
    | _ -> []
  in
  let lines = String.split_on_char '\n' block in
  let rec after = function
    | "best partitioner per dataset:" :: rest -> take_rows rest
    | _ :: rest -> after rest
    | [] -> Alcotest.fail "no best-partitioner block"
  in
  match List.filter (fun f -> f <> "") (List.concat_map (String.split_on_char ' ') (after lines)) with
  | [ d; p; t ] ->
      Alcotest.(check string) "dataset" "YouTube" d;
      checkb "one of the two" true (p = "RVC" || p = "2D");
      checkb "a time" true (t <> "")
  | l -> Alcotest.failf "expected one row, got fields [%s]" (String.concat "; " l)

let test_scale_of () =
  let spec = Datasets.find "youtube" in
  let g = Datasets.generate spec in
  let s = Run.scale_of spec g in
  checkb "around 75-110x" true (s > 50.0 && s < 150.0)

let test_sssp_sources_fixed () =
  let spec = Datasets.find "youtube" in
  let g = Datasets.generate spec in
  let a = Run.sssp_sources_of spec ~count:5 g in
  let b = Run.sssp_sources_of spec ~count:5 g in
  Alcotest.(check (array int)) "stable" a b

let test_algo_names () =
  List.iter
    (fun a ->
      match Cutfit.Advisor.algorithm_of_string (Run.algo_name a) with
      | Some a' -> checkb "roundtrip" true (a = a')
      | None -> Alcotest.fail "parse failed")
    Run.all_algos

(* --- Expectations machinery on the small matrix --- *)

let test_verdict_rendering () =
  let v =
    { E.Expectations.name = "x"; expected = "y"; measured = "z"; pass = true }
  in
  let s = Format.asprintf "%a" E.Expectations.summary [ v ] in
  checkb "mentions PASS" true
    (String.length s >= 6 && String.sub s 0 6 = "[PASS]")

let test_check_all_runs () =
  let ms = Lazy.force measurements in
  let verdicts = E.Expectations.check_all ms in
  (* Only the PR (i) correlation + PR granularity + TR checks apply; the
     machinery must at least produce verdicts without raising. *)
  checkb "some verdicts" true (List.length verdicts >= 0)

(* --- Tables render without error --- *)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let test_table1_renders () =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  E.Tables.table1 ppf;
  Format.pp_print_flush ppf ();
  checkb "mentions YouTube" true (contains ~needle:"YouTube" (Buffer.contents buf))

let suite =
  [
    Alcotest.test_case "commas" `Quick test_commas;
    Alcotest.test_case "fsig" `Quick test_fsig;
    Alcotest.test_case "seconds OOM" `Quick test_seconds;
    Alcotest.test_case "table alignment" `Quick test_table_alignment;
    Alcotest.test_case "matrix cell count" `Quick test_matrix_cell_count;
    Alcotest.test_case "matrix times positive" `Quick test_matrix_times_positive;
    Alcotest.test_case "filter" `Quick test_filter;
    Alcotest.test_case "correlations computable" `Quick test_correlations_computable;
    Alcotest.test_case "best partitioners" `Quick test_best_partitioners;
    Alcotest.test_case "scale_of" `Quick test_scale_of;
    Alcotest.test_case "sssp sources fixed" `Quick test_sssp_sources_fixed;
    Alcotest.test_case "algo names" `Quick test_algo_names;
    Alcotest.test_case "verdict rendering" `Quick test_verdict_rendering;
    Alcotest.test_case "check_all runs" `Quick test_check_all_runs;
    Alcotest.test_case "table1 renders" `Quick test_table1_renders;
  ]

(* --- CSV export --- *)

let csv_lines ms =
  let path = Filename.temp_file "cutfit" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      E.Export.save path ms;
      String.split_on_char '\n' (String.trim (In_channel.with_open_bin path In_channel.input_all)))

let test_csv_export () =
  let ms = Lazy.force measurements in
  let lines = csv_lines ms in
  checki "header + rows" (1 + List.length ms) (List.length lines);
  checkb "header first" true (String.starts_with ~prefix:"dataset,partitioner,config,algorithm," (List.hd lines));
  (* Every line has the same number of fields. *)
  let fields l = List.length (String.split_on_char ',' l) in
  let n = fields (List.hd lines) in
  List.iter (fun l -> checki "field count" n (fields l)) lines

let test_csv_roundtrip_file () =
  let ms = Lazy.force measurements in
  checkb "header on disk" true (List.hd (csv_lines ms) = List.hd (csv_lines []))

let suite =
  suite
  @ [
      Alcotest.test_case "csv export" `Quick test_csv_export;
      Alcotest.test_case "csv file" `Quick test_csv_roundtrip_file;
    ]

(* --- the value-discarding front ends, pinned bit for bit --- *)

(* [Infra.run] and [Pipeline.compare_partitioners] keep only times, so
   no value or digest check reads them; each time is pinned here as its
   IEEE-754 bits, one line per partitioner. *)
let bits x = Printf.sprintf "%016Lx" (Int64.bits_of_float x)

let test_infra_bits () =
  let lines =
    List.map
      (fun r ->
        String.concat " "
          [
            r.E.Infra.partitioner;
            bits r.E.Infra.time_ii;
            bits r.E.Infra.time_iii;
            bits r.E.Infra.time_iv;
          ])
      (E.Infra.run ~dataset:"youtube" ())
  in
  Alcotest.(check (list string))
    "infra youtube"
    [
      "RVC 40153cd5db1d50da 4004bdd35ec47a45 40046c2e57f8d83a";
      "1D 4012a18d319f34ff 4005ccc4d38c3e9b 40057b1fccc09c8f";
      "2D 401364f364c89493 40036554262b1f6c 400313af1f5f7d60";
      "CRVC 40105af5166ac059 400327ff9c51c3c9 4002d65a958621be";
      "SC 40105f4f4cb3ec2d 4004a33cf595f434 40045197eeca522a";
      "DC 4006f90d1ba6635c 400213da928369d0 4001c2358bb7c7c5";
    ]
    lines

let test_compare_bits () =
  List.iter
    (fun (dataset, expected) ->
      let g = Datasets.generate (Datasets.find dataset) in
      let lines =
        List.map
          (fun (name, t) -> name ^ " " ^ bits t)
          (Cutfit.Pipeline.compare_partitioners ~algorithm:Cutfit.Advisor.Pagerank g)
      in
      Alcotest.(check (list string)) ("compare PR " ^ dataset) expected lines)
    [
      ( "youtube",
        [
          "DC 3fe815c244249dc9";
          "CRVC 3fe88b7444e5f791";
          "SC 3fe88c9a8c8d0b15";
          "2D 3fe89faa1f74aa0c";
          "1D 3fe8c8ce5ef580e4";
          "RVC 3fe8fbb87a9fedc3";
        ] );
      ( "roadnet_pa",
        [
          "DC 3fe81ca0befee111";
          "CRVC 3fe8773a6888b2b6";
          "1D 3fe8872f6bb6c0a9";
          "SC 3fe89c1f9f162c2d";
          "2D 3fe8d7a2f207966f";
          "RVC 3fe8ea6a7b090d48";
        ] );
    ]

let suite =
  suite
  @ [
      Alcotest.test_case "front ends pinned: infra youtube" `Quick test_infra_bits;
      Alcotest.test_case "front ends pinned: compare PR" `Quick test_compare_bits;
    ]
