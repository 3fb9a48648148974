module Datasets = Cutfit_gen.Datasets
module Characterize = Cutfit_graph.Characterize
module Diameter = Cutfit_graph.Diameter
module Partitioner = Cutfit_partition.Partitioner
module Metrics = Cutfit_partition.Metrics
module Summary = Cutfit_stats.Summary

let table1 ppf =
  let header =
    [ "Dataset"; "Vertices"; "Edges"; "Symm"; "ZeroIn%"; "ZeroOut%"; "Triangles"; "Conn.Comp.";
      "Diameter"; "Size"; "(orig V)"; "(orig E)" ]
  in
  let rows =
    List.map
      (fun spec ->
        let g = Datasets.generate spec in
        let c = Characterize.compute g in
        [
          spec.Datasets.display;
          Summary.commas c.Characterize.vertices;
          Summary.commas c.Characterize.edges;
          Printf.sprintf "%.2f" c.Characterize.symmetry_pct;
          Printf.sprintf "%.2f" c.Characterize.zero_in_pct;
          Printf.sprintf "%.2f" c.Characterize.zero_out_pct;
          Summary.commas c.Characterize.triangles;
          Summary.commas c.Characterize.components;
          Diameter.to_string c.Characterize.diameter;
          Summary.commas c.Characterize.size_bytes ^ "B";
          Summary.commas spec.Datasets.paper_vertices;
          Summary.commas spec.Datasets.paper_edges;
        ])
      Datasets.all
  in
  Format.fprintf ppf "%s@." (Report.table ~header ~rows)

let partition_metrics ?(partitioners = Partitioner.paper_six) ~num_partitions ppf =
  let header = [ "Dataset"; "Partitioner"; "Balance"; "NonCut"; "Cut"; "CommCost"; "PartStDev" ] in
  let rows =
    List.concat_map
      (fun spec ->
        let g = Datasets.generate spec in
        List.map
          (fun p ->
            let assignment = Partitioner.assign p ~num_partitions g in
            let m = Metrics.compute g ~num_partitions assignment in
            [
              spec.Datasets.display;
              Partitioner.name p;
              Printf.sprintf "%.2f" m.Metrics.balance;
              Summary.commas m.Metrics.non_cut;
              Summary.commas m.Metrics.cut;
              Summary.commas m.Metrics.comm_cost;
              Printf.sprintf "%.2f" m.Metrics.part_stdev;
            ])
          partitioners)
      Datasets.all
  in
  Format.fprintf ppf "%s@." (Report.table ~header ~rows)
