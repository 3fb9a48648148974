module Graph = Cutfit_graph.Graph
module Datasets = Cutfit_gen.Datasets
module Partitioner = Cutfit_partition.Partitioner
module Metrics = Cutfit_partition.Metrics
module Cluster = Cutfit_bsp.Cluster
module Cost_model = Cutfit_bsp.Cost_model
module Pgraph = Cutfit_bsp.Pgraph
module Trace = Cutfit_bsp.Trace

type algo = Cutfit.Advisor.algorithm =
  | Pagerank
  | Connected_components
  | Triangle_count
  | Shortest_paths

let all_algos = [ Pagerank; Connected_components; Triangle_count; Shortest_paths ]
let algo_name = Cutfit.Advisor.algorithm_name

type measurement = {
  dataset : Datasets.spec;
  partitioner : string;
  config : string;
  algo : algo;
  metrics : Metrics.t;
  time_s : float;
  completed : bool;
  supersteps : int;
  network_s : float;
  compute_s : float;
}

type options = {
  datasets : Datasets.spec list;
  partitioners : Partitioner.t list;
  clusters : Cluster.t list;
  algos : algo list;
  cost : Cost_model.t;
  sssp_sources : int;
  iterations : int;
  progress : bool;
}

let default_options =
  {
    datasets = Datasets.all;
    partitioners = Partitioner.paper_six;
    clusters = [ Cluster.config_i; Cluster.config_ii ];
    algos = all_algos;
    cost = Cost_model.default;
    sssp_sources = 5;
    iterations = 10;
    progress = true;
  }

let scale_of spec g =
  float_of_int spec.Datasets.paper_edges /. float_of_int (Graph.num_edges g)

let sssp_sources_of spec ~count g =
  (* Seed derived from the dataset name so sources are stable across the
     whole matrix, as the paper holds them fixed per dataset. *)
  let seed =
    String.fold_left (fun acc c -> Int64.add (Int64.mul acc 31L) (Int64.of_int (Char.code c)))
      7L spec.Datasets.name
  in
  Cutfit_algo.Sssp.pick_landmarks ~seed ~count g

let run opts =
  let results = ref [] in
  let log fmt =
    (* lint: no-print — opt-in progress output, off by default. *)
    if opts.progress then Format.eprintf fmt else Format.ifprintf Format.err_formatter fmt
  in
  List.iter
    (fun spec ->
      let g = Datasets.generate spec in
      let scale = scale_of spec g in
      let und =
        if List.mem Triangle_count opts.algos then Some (Graph.symmetrize g) else None
      in
      let sources =
        if List.mem Shortest_paths opts.algos then
          sssp_sources_of spec ~count:opts.sssp_sources g
        else [||]
      in
      List.iter
        (fun cluster ->
          List.iter
            (fun partitioner ->
              let pname = Partitioner.name partitioner in
              log "[run] %s %s %s@." spec.Datasets.name cluster.Cluster.name pname;
              let assignment =
                Partitioner.assign partitioner ~num_partitions:cluster.Cluster.num_partitions g
              in
              let pg = Pgraph.build g ~num_partitions:cluster.Cluster.num_partitions assignment in
              let p = Cutfit.Pipeline.of_pgraph ~cluster ~scale ~cost:opts.cost ~partitioner pg in
              let metrics = Pgraph.metrics pg in
              List.iter
                (fun algo ->
                  (* SSSP runs once per source and the cell averages the
                     runs (one OOM marks the whole cell failed, as in the
                     paper); the other algorithms run once. *)
                  let landmark_sets =
                    if algo = Shortest_paths then Array.map (fun s -> [| s |]) sources
                    else [| [||] |]
                  in
                  let total = ref 0.0
                  and all_ok = ref true
                  and steps = ref 0
                  and net = ref 0.0
                  and cmp = ref 0.0 in
                  Array.iter
                    (fun landmarks ->
                      let (Cutfit.Pipeline.Algo a) =
                        Cutfit.Pipeline.algo ~iterations:opts.iterations ?undirected:und
                          ~landmarks:(Lazy.from_val landmarks) algo
                      in
                      let t = a.Cutfit.Pipeline.price p in
                      if not (Trace.completed t) then all_ok := false;
                      total := !total +. t.Trace.total_s;
                      steps := max !steps (Trace.num_supersteps t);
                      net := !net +. Trace.total_network_s t;
                      cmp := !cmp +. Trace.total_compute_s t)
                    landmark_sets;
                  let k = float_of_int (max 1 (Array.length landmark_sets)) in
                  results :=
                    {
                      dataset = spec;
                      partitioner = pname;
                      config = cluster.Cluster.name;
                      algo;
                      metrics;
                      time_s = (if !all_ok then !total /. k else Float.nan);
                      completed = !all_ok;
                      supersteps = !steps;
                      network_s = !net /. k;
                      compute_s = !cmp /. k;
                    }
                    :: !results)
                opts.algos)
            opts.partitioners)
        opts.clusters)
    opts.datasets;
  List.rev !results

let filter ?algo ?config ?dataset ms =
  List.filter
    (fun m ->
      (match algo with Some a -> m.algo = a | None -> true)
      && (match config with Some c -> m.config = c | None -> true)
      && match dataset with Some d -> m.dataset.Datasets.name = d | None -> true)
    ms
