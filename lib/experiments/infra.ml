module Datasets = Cutfit_gen.Datasets
module Partitioner = Cutfit_partition.Partitioner
module Cluster = Cutfit_bsp.Cluster
module Pgraph = Cutfit_bsp.Pgraph

type result = {
  partitioner : string;
  time_ii : float;
  time_iii : float;
  time_iv : float;
  gain_iii_pct : float;
  gain_iv_pct : float;
}

let run ?(dataset = "follow_dec") () =
  let spec = Datasets.find dataset in
  let g = Datasets.generate spec in
  let scale = Run.scale_of spec g in
  let (Cutfit.Pipeline.Algo a) =
    Cutfit.Pipeline.algo ~landmarks:(Lazy.from_val [||]) Cutfit.Advisor.Pagerank
  in
  List.map
    (fun partitioner ->
      let num_partitions = Cluster.config_ii.Cluster.num_partitions in
      let assignment = Partitioner.assign partitioner ~num_partitions g in
      let pg = Pgraph.build g ~num_partitions assignment in
      let time cluster =
        (a.Cutfit.Pipeline.price (Cutfit.Pipeline.of_pgraph ~cluster ~scale ~partitioner pg))
          .Cutfit_bsp.Trace.total_s
      in
      let t2 = time Cluster.config_ii in
      let t3 = time Cluster.config_iii in
      let t4 = time Cluster.config_iv in
      {
        partitioner = Partitioner.name partitioner;
        time_ii = t2;
        time_iii = t3;
        time_iv = t4;
        gain_iii_pct = 100.0 *. (t2 -. t3) /. t2;
        gain_iv_pct = 100.0 *. (t2 -. t4) /. t2;
      })
    Partitioner.paper_six

let report ppf results =
  let header = [ "Partitioner"; "(ii)"; "(iii) 40Gbps"; "(iv) +SSD"; "gain(iii)"; "gain(iv)" ] in
  let rows =
    List.map
      (fun r ->
        [
          r.partitioner;
          Report.seconds r.time_ii;
          Report.seconds r.time_iii;
          Report.seconds r.time_iv;
          Report.pct r.gain_iii_pct;
          Report.pct r.gain_iv_pct;
        ])
      results
  in
  Format.fprintf ppf "%s@." (Report.table ~header ~rows);
  let avg f = List.fold_left (fun a r -> a +. f r) 0.0 results /. float_of_int (List.length results) in
  Format.fprintf ppf "average gain: (iii) %.1f%% (paper ~15%%), (iv) %.1f%% (paper ~20%%)@."
    (avg (fun r -> r.gain_iii_pct))
    (avg (fun r -> r.gain_iv_pct))
