module Graph = Cutfit_graph.Graph
module Datasets = Cutfit_gen.Datasets
module Metrics = Cutfit_partition.Metrics
module Histogram = Cutfit_stats.Histogram
module Cdf = Cutfit_stats.Cdf
module Correlation = Cutfit_stats.Correlation
module Asciiplot = Cutfit_stats.Asciiplot

let figure1 ppf =
  List.iter
    (fun spec ->
      let g = Datasets.generate spec in
      let n = Graph.num_vertices g in
      let out_deg = Array.init n (Graph.out_degree g) in
      let in_deg = Array.init n (Graph.in_degree g) in
      let fmt_bins bins =
        String.concat " "
          (List.map (fun b -> Printf.sprintf "[%d,%d):%d" b.Histogram.lo b.Histogram.hi b.Histogram.count) bins)
      in
      let fit label values =
        match Cutfit_stats.Powerlaw.fit_alpha ~x_min:4 values with
        | Some f ->
            Printf.sprintf "%s alpha=%.2f (tail %.1f%%)" label f.Cutfit_stats.Powerlaw.alpha
              (100.0 *. f.Cutfit_stats.Powerlaw.tail_fraction)
        | None -> Printf.sprintf "%s alpha=n/a" label
      in
      Format.fprintf ppf "%s  [%s, %s]@.  out-degree: %s@.  in-degree:  %s@."
        spec.Datasets.display (fit "out" out_deg) (fit "in" in_deg)
        (fmt_bins (Histogram.log2_bins out_deg))
        (fmt_bins (Histogram.log2_bins in_deg)))
    Datasets.all

let figure2 ppf =
  let points = [ 0.1; 0.25; 0.5; 0.9; 1.0; 1.1; 2.0; 4.0; 10.0 ] in
  let header = "Dataset" :: List.map (fun r -> Printf.sprintf "<=%.2g" r) points in
  let rows =
    List.map
      (fun spec ->
        let g = Datasets.generate spec in
        let n = Graph.num_vertices g in
        let ratios = ref [] in
        for v = 0 to n - 1 do
          let din = Graph.in_degree g v and dout = Graph.out_degree g v in
          (* Vertices with no in-edges have an infinite ratio; they sit
             in the CDF's top bucket like the paper's crawl leaves. *)
          if din > 0 then ratios := (float_of_int dout /. float_of_int din) :: !ratios
          else if dout > 0 then ratios := infinity :: !ratios
        done;
        let cdf = Cdf.of_samples (Array.of_list !ratios) in
        spec.Datasets.display
        :: List.map (fun r -> Printf.sprintf "%.2f" (Cdf.eval cdf r)) points)
      Datasets.all
  in
  Format.fprintf ppf "%s@." (Report.table ~header ~rows)

(* The paper's figures are log-log scatters spanning several orders of
   magnitude; correlating the logs matches what the plots show. *)
let log_points ms metric =
  ms
  |> List.filter (fun m -> m.Run.completed)
  |> List.map (fun m ->
         (log10 (Float.max 1.0 (Metrics.metric_value m.Run.metrics metric)),
          log10 (Float.max 1e-9 m.Run.time_s)))

let correlations ms algo ~config =
  let cells = Run.filter ~algo ~config ms in
  List.map
    (fun metric ->
      let pts = log_points cells metric in
      let xs = Array.of_list (List.map fst pts) and ys = Array.of_list (List.map snd pts) in
      let c = if Array.length xs < 2 then Float.nan else Correlation.pearson xs ys in
      (metric, c))
    Metrics.metric_names

let best_partitioners ms algo ~config =
  let cells = Run.filter ~algo ~config ms in
  List.filter_map
    (fun spec ->
      let mine =
        List.filter
          (fun m -> m.Run.dataset.Datasets.name = spec.Datasets.name && m.Run.completed)
          cells
      in
      match mine with
      | [] -> None
      | first :: rest ->
          let best =
            List.fold_left (fun b m -> if m.Run.time_s < b.Run.time_s then m else b) first rest
          in
          Some (spec.Datasets.display, best.Run.partitioner, best.Run.time_s))
    Datasets.all

let granularity_deltas ms algo =
  List.filter_map
    (fun spec ->
      let best config =
        match
          best_partitioners ms algo ~config
          |> List.find_opt (fun (d, _, _) -> d = spec.Datasets.display)
        with
        | Some (_, _, t) -> Some t
        | None -> None
      in
      match (best "(i)", best "(ii)") with
      | Some a, Some b -> Some (spec.Datasets.display, 100.0 *. ((b -. a) /. a))
      | _ -> Some (spec.Datasets.display, Float.nan))
    Datasets.all

let figure_algo ms algo ~metric ppf =
  let configs = [ "(i)"; "(ii)" ] in
  List.iter
    (fun config ->
      let cells = Run.filter ~algo ~config ms in
      if cells <> [] then begin
        Format.fprintf ppf "@.-- %s, configuration %s --@." (Run.algo_name algo) config;
        let header = [ "Dataset"; "Partitioner"; metric; "Time" ] in
        let rows =
          List.map
            (fun m ->
              [
                m.Run.dataset.Datasets.display;
                m.Run.partitioner;
                Cutfit_stats.Summary.commas
                  (int_of_float (Metrics.metric_value m.Run.metrics metric));
                Report.seconds m.Run.time_s;
              ])
            cells
        in
        Format.fprintf ppf "%s@." (Report.table ~header ~rows);
        (* The paper's figure is a log-log scatter: one glyph per dataset. *)
        let glyphs = "123456789" in
        let series =
          List.mapi
            (fun i spec ->
              {
                Asciiplot.label = spec.Datasets.display;
                glyph = glyphs.[i mod String.length glyphs];
                points =
                  List.filter_map
                    (fun m ->
                      if m.Run.dataset.Datasets.name = spec.Datasets.name && m.Run.completed
                      then Some (Metrics.metric_value m.Run.metrics metric, m.Run.time_s)
                      else None)
                    cells;
              })
            Datasets.all
        in
        Format.fprintf ppf "%s@."
          (Asciiplot.scatter ~log_x:true ~log_y:true ~x_label:metric ~y_label:"time (s)" series);
        Format.fprintf ppf "correlation of log(time) vs log(metric) over completed cells:@.";
        List.iter
          (fun (name, c) ->
            Format.fprintf ppf "  %-10s %s%.0f%%@." name (if c < 0.0 then "-" else "")
              (100.0 *. Float.abs c))
          (correlations ms algo ~config);
        Format.fprintf ppf "best partitioner per dataset:@.";
        List.iter
          (fun (d, p, t) -> Format.fprintf ppf "  %-16s %-6s %s@." d p (Report.seconds t))
          (best_partitioners ms algo ~config)
      end)
    configs;
  let deltas = granularity_deltas ms algo in
  if List.exists (fun (_, d) -> not (Float.is_nan d)) deltas then begin
    Format.fprintf ppf "granularity: best-time change (i) -> (ii):@.";
    List.iter
      (fun (d, delta) ->
        if Float.is_nan delta then Format.fprintf ppf "  %-16s n/a@." d
        else Format.fprintf ppf "  %-16s %+.1f%%@." d delta)
      deltas
  end
