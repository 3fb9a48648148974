(* bench/main.exe — regenerates every table and figure of the paper's
   evaluation, plus the repo's own ablations and micro-benchmarks.

   Usage: main.exe [section ...]
   Sections: table1 figure1 figure2 table2 table3 figure3 figure4
             figure5 figure6 checks infra ablation advisor costmodel
             sweep engines workload faults resilience elastic speed
             chaos telemetry export micro all (default: all)

   The (dataset x partitioner x configuration x algorithm) matrix is
   computed once and shared by figure3..6, checks and advisor. *)

module E = Cutfit_experiments
module Run = E.Run

let section name f =
  Format.printf "@.==================================================@.";
  Format.printf "== %s@." name;
  Format.printf "==================================================@.";
  f Format.std_formatter;
  Format.print_flush ()

let matrix = lazy (Run.run { Run.default_options with Run.progress = true })

(* --- paper tables / dataset figures --- *)

let table1 = E.Tables.table1
let figure1 = E.Figures.figure1
let figure2 = E.Figures.figure2
let table2 ppf = E.Tables.partition_metrics ~num_partitions:128 ppf
let table3 ppf = E.Tables.partition_metrics ~num_partitions:256 ppf

let figure_for algo metric ppf = E.Figures.figure_algo (Lazy.force matrix) algo ~metric ppf

let checks ppf = E.Expectations.summary ppf (E.Expectations.check_all (Lazy.force matrix))

let infra ppf = E.Infra.report ppf (E.Infra.run ())

let export ppf =
  let path = "results.csv" in
  let ms = Lazy.force matrix in
  E.Export.save path ms;
  let json_path = "results.json" in
  E.Export.write_json json_path (E.Export.json_of_measurements ms);
  Format.fprintf ppf "wrote the full evaluation matrix to %s and %s@." path json_path

(* --- A1: streaming partitioners vs the paper's six --- *)

let ablation_streaming ppf =
  Format.fprintf ppf
    "Streaming/degree-aware baselines (DBH / Greedy / HDRF / Hybrid) vs the paper's six,@.\
     PageRank at 128 partitions on the two smaller social analogues:@.";
  List.iter
    (fun name ->
      let spec = Cutfit.Datasets.find name in
      let g = Cutfit.Datasets.generate spec in
      let scale = Run.scale_of spec g in
      Format.fprintf ppf "@.%s:@." spec.Cutfit.Datasets.display;
      let rows =
        List.map
          (fun p ->
            let a = Cutfit.Partitioner.assign p ~num_partitions:128 g in
            let m = Cutfit.Metrics.compute g ~num_partitions:128 a in
            let pg = Cutfit.Pgraph.build g ~num_partitions:128 a in
            let r = Cutfit.Pagerank.run ~scale ~cluster:Cutfit.Cluster.config_i pg in
            [
              Cutfit.Partitioner.name p;
              Printf.sprintf "%.2f" m.Cutfit.Metrics.balance;
              Cutfit.Summary.commas m.Cutfit.Metrics.comm_cost;
              E.Report.seconds r.Cutfit.Pagerank.trace.Cutfit.Trace.total_s;
            ])
          (Cutfit.Partitioner.paper_six @ Cutfit.Partitioner.streaming_baselines)
      in
      Format.fprintf ppf "%s@."
        (E.Report.table ~header:[ "Partitioner"; "Balance"; "CommCost"; "PR time" ] ~rows))
    [ "youtube"; "pocek" ]

(* --- A2: the advisor's heuristic vs every fixed strategy --- *)

let ablation_advisor ppf =
  let ms = Lazy.force matrix in
  Format.fprintf ppf
    "Regret of the paper-rule advisor (heuristic mode) against the best@.\
     fixed strategy per (dataset, configuration), simulated job time:@.@.";
  List.iter
    (fun algo ->
      let cells = Run.filter ~algo ms in
      let regrets = ref [] and wins = ref 0 and total = ref 0 in
      List.iter
        (fun spec ->
          List.iter
            (fun config ->
              let mine =
                List.filter
                  (fun m ->
                    m.Run.dataset.Cutfit.Datasets.name = spec.Cutfit.Datasets.name
                    && m.Run.config = config && m.Run.completed)
                  cells
              in
              match mine with
              | [] -> ()
              | first :: _ ->
                  let num_partitions = (Cutfit.Cluster.find config).Cutfit.Cluster.num_partitions in
                  let size =
                    Cutfit.Advisor.classify
                      ~paper_scale_edges:(float_of_int spec.Cutfit.Datasets.paper_edges)
                  in
                  let pick =
                    Cutfit.Strategy.to_string
                      (Cutfit.Advisor.heuristic algo ~size ~num_partitions)
                  in
                  let best =
                    List.fold_left
                      (fun b m -> if m.Run.time_s < b.Run.time_s then m else b)
                      first mine
                  in
                  (match List.find_opt (fun m -> m.Run.partitioner = pick) mine with
                  | Some chosen ->
                      incr total;
                      if chosen.Run.partitioner = best.Run.partitioner then incr wins;
                      regrets :=
                        (100.0 *. (chosen.Run.time_s -. best.Run.time_s) /. best.Run.time_s)
                        :: !regrets
                  | None -> ()))
            [ "(i)"; "(ii)" ])
        Cutfit.Datasets.all;
      if !total > 0 then begin
        let mean =
          List.fold_left ( +. ) 0.0 !regrets /. float_of_int (List.length !regrets)
        in
        let worst = List.fold_left Float.max 0.0 !regrets in
        Format.fprintf ppf "%-5s picked the winner %d/%d times; mean regret %.1f%%, worst %.1f%%@."
          (Run.algo_name algo) !wins !total mean worst
      end)
    Run.all_algos

(* --- cost-model ablation: the per-cut-vertex reduction term --- *)

let ablation_costmodel ppf =
  Format.fprintf ppf
    "DESIGN.md flags the triangle-count per-cut-vertex reduction overhead@.\
     as a modeled assumption; this ablation shows what it does. TR on the@.\
     Pocek analogue at 128 partitions, sweeping cut_vertex_reduce_s:@.@.";
  let spec = Cutfit.Datasets.find "pocek" in
  let g = Cutfit.Datasets.generate spec in
  let scale = Run.scale_of spec g in
  let und = Cutfit.Graph.symmetrize g in
  let header = "cut_vertex_reduce_s" :: List.map Cutfit.Strategy.to_string Cutfit.Strategy.all in
  let rows =
    List.map
      (fun factor ->
        let base = Cutfit.Cost_model.default in
        let cost =
          { base with Cutfit.Cost_model.cut_vertex_reduce_s =
              base.Cutfit.Cost_model.cut_vertex_reduce_s *. factor }
        in
        Printf.sprintf "%.0fx" factor
        :: List.map
             (fun s ->
               let a =
                 Cutfit.Partitioner.assign (Cutfit.Partitioner.Hash s) ~num_partitions:128 g
               in
               let pg = Cutfit.Pgraph.build g ~num_partitions:128 a in
               let r =
                 Cutfit.Triangle_count.run ~scale ~cost ~undirected:und
                   ~cluster:Cutfit.Cluster.config_i pg
               in
               E.Report.seconds r.Cutfit.Triangle_count.trace.Cutfit.Trace.total_s)
             Cutfit.Strategy.all)
      [ 0.0; 1.0; 4.0 ]
  in
  Format.fprintf ppf "%s@." (E.Report.table ~header ~rows)

(* --- granularity sweep: time vs partition count --- *)

let sweep ppf =
  Format.fprintf ppf
    "The paper's contribution list includes \"partitioning depends on the@.\
     number of partitions\"; configs (i)/(ii) probe only 128 vs 256. This@.\
     sweep runs PR and CC on the Pocek analogue from 32 to 512 partitions@.\
     (advised strategy at each point), showing where each algorithm's@.\
     sweet spot sits:@.@.";
  let spec = Cutfit.Datasets.find "pocek" in
  let g = Cutfit.Datasets.generate spec in
  let scale = Run.scale_of spec g in
  let counts = [ 32; 64; 128; 256; 512 ] in
  let header = "Partitions" :: List.map string_of_int counts in
  let time_row name algo =
    name
    :: List.map
         (fun num_partitions ->
           let cluster =
             { Cutfit.Cluster.config_i with Cutfit.Cluster.name = "(sweep)"; num_partitions }
           in
           let strategy = Cutfit.Advisor.advise algo ~scale ~num_partitions g in
           let a =
             Cutfit.Partitioner.assign (Cutfit.Partitioner.Hash strategy) ~num_partitions g
           in
           let pg = Cutfit.Pgraph.build g ~num_partitions a in
           let p =
             Cutfit.Pipeline.of_pgraph ~cluster ~scale
               ~partitioner:(Cutfit.Partitioner.Hash strategy) pg
           in
           let (Cutfit.Pipeline.Algo entry) =
             Cutfit.Pipeline.algo ~landmarks:(lazy (Cutfit.Pipeline.default_landmarks g)) algo
           in
           let _, trace = entry.Cutfit.Pipeline.run p in
           Printf.sprintf "%s (%s)" (E.Report.seconds trace.Cutfit.Trace.total_s)
             (Cutfit.Strategy.to_string strategy))
         counts
  in
  let rows =
    [ time_row "PR" Cutfit.Advisor.Pagerank; time_row "CC" Cutfit.Advisor.Connected_components ]
  in
  Format.fprintf ppf "%s@." (E.Report.table ~header ~rows)

(* --- engine comparison: Pregel vs GAS (Verma et al.-style) --- *)

let engines ppf =
  Format.fprintf ppf
    "PageRank under GraphX-style Pregel vs PowerGraph-style GAS on the@.     same partitionings (Pocek analogue, 128 partitions). The related@.     work the paper builds on (Verma et al.) found partitioner rankings@.     differ across engines; the gather-side aggregation changes which@.     strategy minimizes traffic:@.@.";
  let spec = Cutfit.Datasets.find "pocek" in
  let g = Cutfit.Datasets.generate spec in
  let scale = Run.scale_of spec g in
  let rows =
    List.map
      (fun strategy ->
        let a =
          Cutfit.Partitioner.assign (Cutfit.Partitioner.Hash strategy) ~num_partitions:128 g
        in
        let pg = Cutfit.Pgraph.build g ~num_partitions:128 a in
        let pregel = Cutfit.Pagerank.run ~scale ~cluster:Cutfit.Cluster.config_i pg in
        let gas = Cutfit.Pagerank.run_gas ~scale ~cluster:Cutfit.Cluster.config_i pg in
        let agree =
          Array.for_all2
            (fun x y -> abs_float (x -. y) < 1e-9)
            pregel.Cutfit.Pagerank.ranks gas.Cutfit.Pagerank.ranks
        in
        [
          Cutfit.Strategy.to_string strategy;
          E.Report.seconds pregel.Cutfit.Pagerank.trace.Cutfit.Trace.total_s;
          E.Report.seconds gas.Cutfit.Pagerank.trace.Cutfit.Trace.total_s;
          (if agree then "yes" else "NO");
        ])
      Cutfit.Strategy.all
  in
  Format.fprintf ppf "%s@."
    (E.Report.table ~header:[ "Partitioner"; "Pregel"; "GAS"; "ranks agree" ] ~rows)

(* --- workload: scheduling policies x partitioning-cache budgets --- *)

module W = Cutfit_workload
module Json = Cutfit.Json

let workload ppf =
  let mix =
    match W.Job.find_mix "reuse-heavy" with
    | Some m -> m
    | None -> invalid_arg "bench: reuse-heavy mix missing"
  in
  let seed = 7L and n_jobs = 30 in
  let jobs = W.Job.generate ~seed ~jobs:n_jobs mix in
  Format.fprintf ppf
    "%d jobs from the %S mix (%s),@.\
     replayed under scheduler / selection / cache-budget configurations.@.\
     Every run replays the identical stream, so the columns are directly@.\
     comparable; 'fifo + measured + 0 GB' is the no-cache baseline.@.@."
    n_jobs mix.W.Job.name mix.W.Job.description;
  let gb = 1.0e9 in
  let configs =
    [
      (W.Engine.Fifo, W.Engine.Measured, 0.0, W.Cache.Lru);
      (W.Engine.Fifo, W.Engine.Cache_aware 0.25, 2.0, W.Cache.Lru);
      (W.Engine.Fifo, W.Engine.Cache_aware 0.25, 8.0, W.Cache.Lru);
      (W.Engine.Sjf, W.Engine.Cache_aware 0.25, 8.0, W.Cache.Cost_aware);
    ]
  in
  let reports =
    List.map
      (fun (policy, selection, budget_gb, eviction) ->
        let r =
          W.Engine.run ~policy ~selection ~eviction ~budget_bytes:(budget_gb *. gb) ~seed jobs
        in
        (budget_gb, r))
      configs
  in
  let rows =
    List.map
      (fun (budget_gb, (r : W.Engine.report)) ->
        [
          W.Engine.policy_name r.W.Engine.policy;
          W.Engine.selection_name r.W.Engine.selection;
          Printf.sprintf "%.0f GB" budget_gb;
          W.Cache.eviction_name r.W.Engine.eviction;
          Printf.sprintf "%.0f%%" (100.0 *. W.Engine.hit_rate r);
          string_of_int r.W.Engine.cache.W.Cache.evictions;
          Printf.sprintf "%.1f" (W.Engine.makespan_s r);
          Printf.sprintf "%.2f" (W.Engine.mean_queue_s r);
          Printf.sprintf "%.1f" (W.Engine.total_partition_s r);
          Printf.sprintf "%.1f" (W.Engine.total_exec_s r);
        ])
      reports
  in
  Format.fprintf ppf "%s@."
    (E.Report.table
       ~header:
         [
           "Policy"; "Selection"; "Budget"; "Evict"; "Hit rate"; "Evictions"; "Makespan s";
           "Mean queue s"; "Partition s"; "Exec s";
         ]
       ~rows);
  (match reports with
  | (_, baseline) :: rest ->
      let cached =
        List.filter
          (fun (_, (r : W.Engine.report)) ->
            match r.W.Engine.selection with W.Engine.Cache_aware _ -> true | _ -> false)
          rest
      in
      List.iter
        (fun (budget_gb, (r : W.Engine.report)) ->
          let saved = W.Engine.makespan_s baseline -. W.Engine.makespan_s r in
          Format.fprintf ppf
            "%s + cache-aware @@ %.0f GB vs fifo + no cache: makespan %.1fs vs %.1fs (%+.1fs, \
             %.0f%% of the baseline's partitioning time amortized away)@."
            (W.Engine.policy_name r.W.Engine.policy)
            budget_gb (W.Engine.makespan_s r) (W.Engine.makespan_s baseline) (-.saved)
            (100.0
            *. (W.Engine.total_partition_s baseline -. W.Engine.total_partition_s r)
            /. Float.max (W.Engine.total_partition_s baseline) 1e-9))
        cached
  | [] -> ());
  let config_json (budget_gb, (r : W.Engine.report)) =
    Json.Obj
      [
        ("policy", Json.String (W.Engine.policy_name r.W.Engine.policy));
        ("selection", Json.String (W.Engine.selection_name r.W.Engine.selection));
        ("eviction", Json.String (W.Cache.eviction_name r.W.Engine.eviction));
        ("budget_gb", Json.Float budget_gb);
        ("slots", Json.Int r.W.Engine.slots);
        ("hit_rate", Json.Float (W.Engine.hit_rate r));
        ("hits", Json.Int r.W.Engine.cache.W.Cache.hits);
        ("misses", Json.Int r.W.Engine.cache.W.Cache.misses);
        ("evictions", Json.Int r.W.Engine.cache.W.Cache.evictions);
        ("makespan_s", Json.Float (W.Engine.makespan_s r));
        ("mean_queue_s", Json.Float (W.Engine.mean_queue_s r));
        ("total_partition_s", Json.Float (W.Engine.total_partition_s r));
        ("total_exec_s", Json.Float (W.Engine.total_exec_s r));
      ]
  in
  let path = "BENCH_workload.json" in
  E.Export.write_json path
    (Json.Obj
       [
         ("mix", Json.String mix.W.Job.name);
         ("jobs", Json.Int n_jobs);
         ("seed", Json.String (Int64.to_string seed));
         ("configs", Json.List (List.map config_json reports));
       ]);
  Format.fprintf ppf "@.wrote the machine-readable comparison to %s@." path

(* --- dynamic: incremental refresh vs full rebuild under mutations --- *)

let dynamic ppf =
  let mix =
    match W.Job.find_mix "reuse-heavy" with
    | Some m -> m
    | None -> invalid_arg "bench: reuse-heavy mix missing"
  in
  let seed = 7L and n_jobs = 30 in
  let jobs = W.Job.generate ~seed ~jobs:n_jobs mix in
  Format.fprintf ppf
    "%d jobs from the %S mix with seeded edge-mutation batches landing@.\
     every K launches (N inserts + N/4 deletes per batch). Each cell@.\
     replays the identical stream three times: forcing the incremental@.\
     refresh path, forcing the drop-cold rebuild path, and letting the@.\
     cost model price the choice per batch.@.@."
    n_jobs mix.W.Job.name;
  let grid_every = [ 4; 8 ] in
  let grid_rate = [ 16; 64 ] in
  let cells = ref [] in
  let rows =
    List.concat_map
      (fun mutate_every ->
        List.map
          (fun rate ->
            let spec = Printf.sprintf "ins@1-16:r%d,del@1-16:r%d" rate (max 1 (rate / 4)) in
            let cfg = Cutfit.Mutation.config spec in
            let run mode =
              W.Engine.run ~mutations:cfg ~mutate_every ~mutation_mode:mode ~seed jobs
            in
            let refresh = run W.Engine.Force_refresh in
            let rebuild = run W.Engine.Force_rebuild in
            let priced = run W.Engine.Priced in
            let mk (r : W.Engine.report) =
              Json.Obj
                [
                  ("mode", Json.String (W.Engine.mutation_mode_name r.W.Engine.mutation_mode));
                  ("makespan_s", Json.Float (W.Engine.makespan_s r));
                  ("hit_rate", Json.Float (W.Engine.hit_rate r));
                  ("total_partition_s", Json.Float (W.Engine.total_partition_s r));
                  ("batches", Json.Int (List.length r.W.Engine.mutations));
                  ( "refresh_batches",
                    Json.Int
                      (List.length
                         (List.filter
                            (fun (m : W.Engine.mutation_record) ->
                              String.equal m.W.Engine.mut_choice "refresh")
                            r.W.Engine.mutations)) );
                ]
            in
            cells :=
              Json.Obj
                [
                  ("mutate_every", Json.Int mutate_every);
                  ("rate", Json.Int rate);
                  ("spec", Json.String spec);
                  ("modes", Json.List [ mk refresh; mk rebuild; mk priced ]);
                ]
              :: !cells;
            [
              string_of_int mutate_every;
              Printf.sprintf "+%d/-%d" rate (max 1 (rate / 4));
              string_of_int (List.length refresh.W.Engine.mutations);
              Printf.sprintf "%.1f" (W.Engine.makespan_s refresh);
              Printf.sprintf "%.1f" (W.Engine.makespan_s rebuild);
              Printf.sprintf "%.1f" (W.Engine.makespan_s priced);
              Printf.sprintf "%.0f%%" (100.0 *. W.Engine.hit_rate refresh);
              Printf.sprintf "%.0f%%" (100.0 *. W.Engine.hit_rate rebuild);
              (if W.Engine.makespan_s refresh < W.Engine.makespan_s rebuild then "refresh"
               else if W.Engine.makespan_s rebuild < W.Engine.makespan_s refresh then "rebuild"
               else "tie");
            ])
          grid_rate)
      grid_every
  in
  Format.fprintf ppf "%s@."
    (E.Report.table
       ~header:
         [
           "Every"; "Batch"; "Batches"; "Refresh s"; "Rebuild s"; "Priced s"; "Hit(refr)";
           "Hit(rebd)"; "Winner";
         ]
       ~rows);
  let path = "BENCH_dynamic.json" in
  E.Export.write_json path
    (Json.Obj
       [
         ("mix", Json.String mix.W.Job.name);
         ("jobs", Json.Int n_jobs);
         ("seed", Json.String (Int64.to_string seed));
         ("cells", Json.List (List.rev !cells));
       ]);
  Format.fprintf ppf "@.wrote the incremental-vs-rebuild grid to %s@." path

(* --- faults: checkpoint cadence x fault rate, recovery overhead --- *)

let faults ppf =
  let spec = Cutfit.Datasets.find "pocek" in
  let g = Cutfit.Datasets.generate spec in
  let scale = Run.scale_of spec g in
  Format.fprintf ppf
    "PageRank on the Pocek analogue (advised partitioner, config (i))@.\
     under seeded fault schedules: checkpoint cadence x fault rate, both@.\
     recovery modes. Every faulty run is checked bit-identical to the@.\
     fault-free baseline (the recovery-equivalence invariant); the table@.\
     prices what that tolerance costs in simulated time:@.@.";
  let run ?faults ?checkpoint_every () =
    let what_if = { Cutfit.Pricer.static with faults; checkpoint_every } in
    let p = Cutfit.Pipeline.prepare ~scale ~what_if ~algorithm:Cutfit.Advisor.Pagerank g in
    Cutfit.Pipeline.pagerank p
  in
  let base_ranks, base_trace = run () in
  let base_digest = Cutfit.Check.Fault_check.float_attrs_digest base_ranks in
  let rates = [ 0.0; 0.1; 0.5 ] in
  let cadences = [ None; Some 2; Some 5 ] in
  let cells =
    List.concat_map
      (fun mode ->
        List.concat_map
          (fun rate ->
            List.map
              (fun cadence ->
                (* a pinned crash so both recovery modes are actually
                   exercised, plus the rate-controlled random layer *)
                let faults =
                  if rate = 0.0 then None
                  else
                    Some (Cutfit.Faults.config ~mode (Printf.sprintf "crash@3,rand@%g" rate))
                in
                let ranks, trace = run ?faults ?checkpoint_every:cadence () in
                let digest = Cutfit.Check.Fault_check.float_attrs_digest ranks in
                if Cutfit.Trace.completed trace && digest <> base_digest then
                  invalid_arg "bench faults: faulty run diverged from the baseline";
                (mode, rate, cadence, trace))
              cadences)
          rates)
      [ Cutfit.Faults.Rollback; Cutfit.Faults.Lineage ]
  in
  let cadence_name = function None -> "none" | Some k -> Printf.sprintf "every %d" k in
  let rows =
    List.map
      (fun (mode, rate, cadence, (t : Cutfit.Trace.t)) ->
        [
          Cutfit.Faults.mode_name mode;
          Printf.sprintf "%.0f%%" (100.0 *. rate);
          cadence_name cadence;
          string_of_int t.Cutfit.Trace.faults_injected;
          string_of_int (Cutfit.Trace.num_recoveries t);
          E.Report.seconds t.Cutfit.Trace.checkpoint_s;
          E.Report.seconds (Cutfit.Trace.recovery_s t);
          E.Report.seconds t.Cutfit.Trace.total_s;
          Printf.sprintf "%+.0f%%"
            (100.0
            *. (t.Cutfit.Trace.total_s -. base_trace.Cutfit.Trace.total_s)
            /. base_trace.Cutfit.Trace.total_s);
          Cutfit.Trace.outcome_name t.Cutfit.Trace.outcome;
        ])
      cells
  in
  Format.fprintf ppf "%s@."
    (E.Report.table
       ~header:
         [
           "Mode"; "Rate"; "Checkpoint"; "Faults"; "Recoveries"; "Ckpt s"; "Recovery s";
           "Total s"; "Overhead"; "Outcome";
         ]
       ~rows);
  let cell_json (mode, rate, cadence, (t : Cutfit.Trace.t)) =
    Json.Obj
      [
        ("mode", Json.String (Cutfit.Faults.mode_name mode));
        ("fault_rate", Json.Float rate);
        ( "checkpoint_every",
          match cadence with None -> Json.Null | Some k -> Json.Int k );
        ("faults_injected", Json.Int t.Cutfit.Trace.faults_injected);
        ("recoveries", Json.Int (Cutfit.Trace.num_recoveries t));
        ("checkpoints", Json.Int t.Cutfit.Trace.checkpoints);
        ("checkpoint_s", Json.Float t.Cutfit.Trace.checkpoint_s);
        ("recovery_s", Json.Float (Cutfit.Trace.recovery_s t));
        ("total_s", Json.Float t.Cutfit.Trace.total_s);
        ("outcome", Json.String (Cutfit.Trace.outcome_name t.Cutfit.Trace.outcome));
        ("value_digest_matches_baseline", Json.Bool (Cutfit.Trace.completed t));
      ]
  in
  let path = "BENCH_faults.json" in
  E.Export.write_json path
    (Json.Obj
       [
         ("dataset", Json.String spec.Cutfit.Datasets.name);
         ("algorithm", Json.String "PR");
         ("baseline_total_s", Json.Float base_trace.Cutfit.Trace.total_s);
         ("baseline_value_digest", Json.String base_digest);
         ("cells", Json.List (List.map cell_json cells));
       ]);
  Format.fprintf ppf "@.wrote the machine-readable grid to %s@." path

(* --- resilience: speculation on/off x straggler intensity x queue bound --- *)

let resilience ppf =
  let seed = 7L and n_jobs = 20 in
  let mix =
    match W.Job.find_mix "uniform" with Some m -> m | None -> invalid_arg "uniform mix"
  in
  let jobs = W.Job.generate ~seed ~jobs:n_jobs mix in
  Format.fprintf ppf
    "Tail latency under stragglers: the same %d-job uniform stream (SJF,@.\
     cache-aware selection) replayed under straggler intensities, with and@.\
     without speculative re-execution, bounded and unbounded admission@.\
     queues. Speculation re-runs a straggling executor's superstep tasks@.\
     on the least-loaded executor at a priced cost (launch RPC, re-shuffle,@.\
     clone compute) — values stay bit-identical, only the tail moves:@.@."
    n_jobs;
  let cells =
    List.concat_map
      (fun factor ->
        List.concat_map
          (fun queue_bound ->
            List.map
              (fun speculate ->
                let faults =
                  Cutfit.Faults.config (Printf.sprintf "straggler@2:x%d" factor)
                in
                let speculation =
                  if speculate then Some (Cutfit.Speculation.config ()) else None
                in
                let r =
                  W.Engine.run ~faults ?speculation ?queue_bound ~policy:W.Engine.Sjf ~seed
                    jobs
                in
                (factor, queue_bound, speculate, r))
              [ false; true ])
          [ None; Some 4 ])
      [ 4; 8; 16 ]
  in
  let shed_rate (r : W.Engine.report) =
    float_of_int (W.Engine.shed_jobs r) /. float_of_int n_jobs
  in
  let ptiles (r : W.Engine.report) =
    match W.Engine.latency_percentiles r with
    | Some p -> p
    | None -> invalid_arg "bench resilience: a cell finished no jobs"
  in
  let bound_name = function None -> "unbounded" | Some b -> string_of_int b in
  let rows =
    List.map
      (fun (factor, queue_bound, speculate, (r : W.Engine.report)) ->
        let p = ptiles r in
        [
          Printf.sprintf "x%d" factor;
          bound_name queue_bound;
          (if speculate then "on" else "off");
          string_of_int (W.Engine.shed_jobs r);
          Printf.sprintf "%.0f%%" (100.0 *. shed_rate r);
          string_of_int (W.Engine.total_speculations r);
          Printf.sprintf "%.1f" p.Cutfit_stats.Summary.p50;
          Printf.sprintf "%.1f" p.Cutfit_stats.Summary.p95;
          Printf.sprintf "%.1f" p.Cutfit_stats.Summary.p99;
          Printf.sprintf "%.1f" (W.Engine.makespan_s r);
        ])
      cells
  in
  Format.fprintf ppf "%s@."
    (E.Report.table
       ~header:
         [
           "Straggler"; "Queue"; "Speculate"; "Shed"; "Shed rate"; "Clones"; "p50"; "p95";
           "p99"; "Makespan s";
         ]
       ~rows);
  (* Headline: the paired p99 deltas, speculation on vs off. *)
  List.iter
    (fun factor ->
      let pick speculate =
        List.find_map
          (fun (f, b, s, r) ->
            if f = factor && b = None && s = speculate then Some (ptiles r) else None)
          cells
      in
      match (pick false, pick true) with
      | Some off, Some on_ ->
          Format.fprintf ppf
            "straggler x%-2d (unbounded): p99 %.1fs -> %.1fs with speculation (%+.0f%%)@."
            factor off.Cutfit_stats.Summary.p99 on_.Cutfit_stats.Summary.p99
            (100.0
            *. (on_.Cutfit_stats.Summary.p99 -. off.Cutfit_stats.Summary.p99)
            /. off.Cutfit_stats.Summary.p99)
      | _ -> ())
    [ 4; 8; 16 ];
  let cell_json (factor, queue_bound, speculate, (r : W.Engine.report)) =
    let p = ptiles r in
    Json.Obj
      [
        ("straggler_factor", Json.Int factor);
        ( "queue_bound",
          match queue_bound with None -> Json.Null | Some b -> Json.Int b );
        ("speculate", Json.Bool speculate);
        ("shed_jobs", Json.Int (W.Engine.shed_jobs r));
        ("shed_rate", Json.Float (shed_rate r));
        ("speculations", Json.Int (W.Engine.total_speculations r));
        ("latency_p50_s", Json.Float p.Cutfit_stats.Summary.p50);
        ("latency_p95_s", Json.Float p.Cutfit_stats.Summary.p95);
        ("latency_p99_s", Json.Float p.Cutfit_stats.Summary.p99);
        ("makespan_s", Json.Float (W.Engine.makespan_s r));
        ("retries", Json.Int r.W.Engine.retries);
      ]
  in
  let path = "BENCH_resilience.json" in
  E.Export.write_json path
    (Json.Obj
       [
         ("mix", Json.String mix.W.Job.name);
         ("jobs", Json.Int n_jobs);
         ("policy", Json.String "sjf");
         ("seed", Json.String (Int64.to_string seed));
         ("speculate_threshold", Json.Float 2.0);
         ("cells", Json.List (List.map cell_json cells));
       ]);
  Format.fprintf ppf "@.wrote the machine-readable grid to %s@." path

(* --- elastic: per-tenant p99 isolation under a noisy-neighbour storm --- *)

let elastic ppf =
  let seed = 7L in
  (* A steady "victim" tenant — one PR job every 6 s — shares the
     cluster with a "storm" tenant that floods 30 jobs in a six-second
     burst starting at t = 12.1 s. The storm-free run anchors the
     victim's native latency profile; the two storm runs differ only in
     whether weighted fair sharing is on. *)
  let victim_jobs = 14 and storm_jobs = 60 and slots = 4 in
  let jobs ~storm =
    let protos =
      List.init victim_jobs (fun i ->
          ("victim", 8.0 *. float_of_int i, Cutfit.Advisor.Triangle_count, "pocek", 128))
      @
      if storm then
        List.init storm_jobs (fun i ->
            ("storm", 0.1 +. (0.2 *. float_of_int i), Cutfit.Advisor.Pagerank, "youtube", 128))
      else []
    in
    let sorted =
      List.stable_sort (fun (_, a, _, _, _) (_, b, _, _, _) -> Float.compare a b) protos
    in
    List.mapi
      (fun id (tenant, arrival_s, algorithm, dataset, num_partitions) ->
        { W.Job.id; arrival_s; tenant; algorithm; dataset; num_partitions })
      sorted
  in
  let run ~storm ~fairness ?scale_events () =
    W.Engine.run ~slots ~fairness
      ~tenant_weights:[ ("victim", 3.0); ("storm", 1.0) ]
      ?scale_events ~seed (jobs ~storm)
  in
  let churn = Cutfit.Elastic.config ~seed:7 "leave@30-1,join@60+1" in
  let cells =
    [
      ("storm-free", run ~storm:false ~fairness:false ());
      ("storm, fairness off", run ~storm:true ~fairness:false ());
      ("storm, fairness on", run ~storm:true ~fairness:true ());
      ("storm + churn, fairness on", run ~storm:true ~fairness:true ~scale_events:churn ());
    ]
  in
  let tenant_ptiles (r : W.Engine.report) tenant =
    let lat =
      List.filter_map
        (fun (j : W.Engine.job_record) ->
          if String.equal j.W.Engine.job.W.Job.tenant tenant && j.W.Engine.outcome <> "shed"
          then Some (j.W.Engine.finish_s -. j.W.Engine.job.W.Job.arrival_s)
          else None)
        r.W.Engine.records
    in
    if lat = [] then None else Some (Cutfit_stats.Summary.percentiles (Array.of_list lat))
  in
  Format.fprintf ppf
    "Per-tenant SLO isolation: a steady victim tenant (1 PR job / 6 s)@.\
     against a 30-job noisy-neighbour burst, with and without weighted@.\
     fair sharing, plus membership churn on top. Fair sharing gives each@.\
     freed slot to the tenant with the smallest busy/weight deficit, so@.\
     the storm queues behind its own backlog instead of the victim's:@.@.";
  let fsig = Printf.sprintf "%.1f" in
  let rows =
    List.map
      (fun (name, (r : W.Engine.report)) ->
        let v = tenant_ptiles r "victim" in
        let s = tenant_ptiles r "storm" in
        let p f = function Some x -> fsig (f x) | None -> "-" in
        [
          name;
          (if r.W.Engine.fairness then "on" else "off");
          string_of_int (r.W.Engine.joins + r.W.Engine.leaves);
          p (fun x -> x.Cutfit_stats.Summary.p50) v;
          p (fun x -> x.Cutfit_stats.Summary.p95) v;
          p (fun x -> x.Cutfit_stats.Summary.p99) v;
          p (fun x -> x.Cutfit_stats.Summary.p99) s;
          fsig (W.Engine.makespan_s r);
        ])
      cells
  in
  Format.fprintf ppf "%s@."
    (E.Report.table
       ~header:
         [
           "Scenario"; "Fairness"; "Scale evts"; "Victim p50"; "Victim p95"; "Victim p99";
           "Storm p99"; "Makespan s";
         ]
       ~rows);
  (* Headline: the victim's p99 degradation vs the storm-free anchor. *)
  let victim_p99 name =
    match tenant_ptiles (List.assoc name cells) "victim" with
    | Some p -> p.Cutfit_stats.Summary.p99
    | None -> invalid_arg "bench elastic: victim finished no jobs"
  in
  let free = victim_p99 "storm-free" in
  let degradation name = 100.0 *. (victim_p99 name -. free) /. free in
  Format.fprintf ppf
    "victim p99: %.1fs storm-free | %.1fs under storm without fairness (%+.0f%%) | %.1fs with \
     fairness (%+.0f%%)@."
    free
    (victim_p99 "storm, fairness off")
    (degradation "storm, fairness off")
    (victim_p99 "storm, fairness on")
    (degradation "storm, fairness on");
  let cell_json (name, (r : W.Engine.report)) =
    let ptile_json = function
      | None -> Json.Null
      | Some p ->
          Json.Obj
            [
              ("p50_s", Json.Float p.Cutfit_stats.Summary.p50);
              ("p95_s", Json.Float p.Cutfit_stats.Summary.p95);
              ("p99_s", Json.Float p.Cutfit_stats.Summary.p99);
            ]
    in
    Json.Obj
      [
        ("scenario", Json.String name);
        ("fairness", Json.Bool r.W.Engine.fairness);
        ("scale_spec", match r.W.Engine.scale_spec with None -> Json.Null | Some s -> Json.String s);
        ("joins", Json.Int r.W.Engine.joins);
        ("leaves", Json.Int r.W.Engine.leaves);
        ("preemptions", Json.Int (W.Engine.preemptions r));
        ("victim_latency", ptile_json (tenant_ptiles r "victim"));
        ("storm_latency", ptile_json (tenant_ptiles r "storm"));
        ("makespan_s", Json.Float (W.Engine.makespan_s r));
        ("fairness_violations", Json.Int r.W.Engine.fairness_violations);
        ("stale_placement_hits", Json.Int r.W.Engine.stale_placement_hits);
      ]
  in
  let path = "BENCH_elastic.json" in
  E.Export.write_json path
    (Json.Obj
       [
         ("victim_jobs", Json.Int victim_jobs);
         ("storm_jobs", Json.Int storm_jobs);
         ("slots", Json.Int slots);
         ("seed", Json.String (Int64.to_string seed));
         ("victim_p99_storm_free_s", Json.Float free);
         ( "victim_p99_degradation_fairness_off_pct",
           Json.Float (degradation "storm, fairness off") );
         ( "victim_p99_degradation_fairness_on_pct",
           Json.Float (degradation "storm, fairness on") );
         ("cells", Json.List (List.map cell_json cells));
       ]);
  Format.fprintf ppf "@.wrote the machine-readable grid to %s@." path

(* --- telemetry: per-superstep observability + JSONL export --- *)

let telemetry ppf =
  Format.fprintf ppf
    "PageRank on the Pocek analogue (advised partitioner, config (i)),@.\
     with the lib/obs telemetry layer attached: a ring buffer for the@.\
     reconciliation table below and a JSONL export (trace.jsonl) from@.\
     which every per-superstep figure can be re-derived offline:@.@.";
  let spec = Cutfit.Datasets.find "pocek" in
  let g = Cutfit.Datasets.generate spec in
  let scale = Run.scale_of spec g in
  let ring, contents = Cutfit.Sink.ring () in
  let t = Cutfit.Telemetry.create ~sinks:[ ring; Cutfit.Sink.jsonl "trace.jsonl" ] () in
  let p = Cutfit.Pipeline.prepare ~scale ~telemetry:t ~algorithm:Cutfit.Advisor.Pagerank g in
  let _ranks, trace = Cutfit.Pipeline.pagerank p in
  Cutfit.Telemetry.close t;
  let events = contents () in
  let profiled =
    List.filter_map (function Cutfit.Event.Superstep (s, p) -> Some (s, p) | _ -> None) events
  in
  let supersteps = List.map fst profiled in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 supersteps in
  let sumf f = List.fold_left (fun acc s -> acc +. f s) 0.0 supersteps in
  let rows =
    [
      [
        "records";
        string_of_int (List.length supersteps);
        string_of_int (Cutfit.Trace.num_supersteps trace);
      ];
      [
        "messages";
        Cutfit.Summary.commas (sum (fun s -> s.Cutfit.Event.messages));
        Cutfit.Summary.commas (Cutfit.Trace.total_messages trace);
      ];
      [
        "remote msgs";
        Cutfit.Summary.commas
          (sum (fun s -> s.Cutfit.Event.remote_shuffles + s.Cutfit.Event.remote_broadcasts));
        Cutfit.Summary.commas (Cutfit.Trace.total_remote_messages trace);
      ];
      [
        "wire bytes";
        Printf.sprintf "%.0f" (sumf (fun s -> s.Cutfit.Event.wire_bytes));
        Printf.sprintf "%.0f" (Cutfit.Trace.total_wire_bytes trace);
      ];
    ]
  in
  Format.fprintf ppf "%s@."
    (E.Report.table ~header:[ "Quantity"; "Event stream"; "Trace.t" ] ~rows);
  Format.fprintf ppf "straggler spread (max/min jittered task time) per superstep:@.";
  List.iter
    (fun ((s : Cutfit.Event.superstep), p) ->
      if s.Cutfit.Event.step >= 0 then
        Format.fprintf ppf "  step %2d: skew %.2f, barrier waits %s@." s.Cutfit.Event.step
          (Cutfit.Event.skew p)
          (String.concat " "
             (List.map (Printf.sprintf "%.3fs") (Array.to_list p.Cutfit.Event.barrier_wait_s))))
    profiled;
  Format.fprintf ppf "registry: @.";
  List.iter
    (fun (name, v) -> Format.fprintf ppf "  %-24s %.3f@." name v)
    (Cutfit.Metric.snapshot (Cutfit.Telemetry.metrics t));
  Format.fprintf ppf "wrote %d events to trace.jsonl@." (Cutfit.Telemetry.events_emitted t)

(* --- bechamel micro-benchmarks --- *)

let micro ppf =
  let open Bechamel in
  let spec = Cutfit.Datasets.find "youtube" in
  let g = Cutfit.Datasets.generate spec in
  let assign_test s =
    Test.make ~name:(Cutfit.Strategy.to_string s) (Staged.stage (fun () ->
        ignore (Cutfit.Partitioner.assign (Cutfit.Partitioner.Hash s) ~num_partitions:128 g)))
  in
  let metrics_test =
    let a = Cutfit.Partitioner.assign (Cutfit.Partitioner.Hash Cutfit.Strategy.Rvc) ~num_partitions:128 g in
    Test.make ~name:"metrics" (Staged.stage (fun () ->
        ignore (Cutfit.Metrics.compute g ~num_partitions:128 a)))
  in
  let pgraph_test =
    let a = Cutfit.Partitioner.assign (Cutfit.Partitioner.Hash Cutfit.Strategy.Rvc) ~num_partitions:128 g in
    Test.make ~name:"pgraph-build" (Staged.stage (fun () ->
        ignore (Cutfit.Pgraph.build g ~num_partitions:128 a)))
  in
  let advisor_test =
    Test.make ~name:"advisor-measure" (Staged.stage (fun () ->
        ignore (Cutfit.Advisor.measure Cutfit.Advisor.Pagerank ~num_partitions:128 g)))
  in
  let grouped =
    Test.make_grouped ~name:"youtube-analogue (37k edges)"
      (List.map assign_test Cutfit.Strategy.all @ [ metrics_test; pgraph_test; advisor_test ])
  in
  let benchmark test =
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 10) () in
    let raw = Benchmark.all cfg instances test in
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    Analyze.all ols Toolkit.Instance.monotonic_clock raw
  in
  let results = benchmark grouped in
  Format.fprintf ppf "per-call wall time (OLS on monotonic clock):@.";
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some (est :: _) -> Format.fprintf ppf "  %-40s %12.0f ns/run@." name est
      | _ -> Format.fprintf ppf "  %-40s (no estimate)@." name)
    results

(* --- speed: compact CSR kernels, measured edges/sec ------------------ *)

(* Uniform random digraph, seeded; self-loops skipped, duplicates kept
   (they only add work, which is the point here). *)
let speed_graph ~seed ~m =
  let n = m / 8 in
  let rng = Cutfit.Xoshiro.create seed in
  let el = Cutfit.Edge_list.create ~capacity:m () in
  let added = ref 0 in
  while !added < m do
    let s = Cutfit.Xoshiro.next_int rng n in
    let d = Cutfit.Xoshiro.next_int rng n in
    if s <> d then begin
      Cutfit.Edge_list.add el ~src:s ~dst:d;
      incr added
    end
  done;
  Cutfit.Graph.of_edge_list ~n el

let speed ppf =
  let num_partitions = 128 in
  let domains = 1 in
  let repeats = 3 in
  Format.fprintf ppf
    "Compact CSR kernels on synthetic uniform graphs (n = edges/8, %d@.partitions, %d \
     domain(s)): median wall time of %d runs and edge-scan throughput,@.10 supersteps for PR/CC, SSSP \
     to convergence, one intersection pass@.for TR. The boxed row executes the identical \
     PageRank superstep@.recurrence on the simulated engine — same values bit-for-bit, priced@.\
     per boxed message instead of per flat array slot:@.@."
    num_partitions domains repeats;
  let sizes = [ 1_000_000; 10_000_000; 50_000_000 ] in
  let tr_cap = 10_000_000 in
  let rows = ref [] and cells = ref [] in
  let record ~algo ~m ~n ~rounds ~wall =
    let scans = m * rounds in
    let rate = float_of_int scans /. Float.max wall 1e-9 in
    rows :=
      [
        algo; Cutfit.Summary.commas m; Cutfit.Summary.commas n; string_of_int rounds;
        Printf.sprintf "%.3f" wall; Cutfit.Summary.commas (int_of_float rate);
      ]
      :: !rows;
    cells :=
      Json.Obj
        [
          ("algorithm", Json.String algo);
          ("edges", Json.Int m);
          ("vertices", Json.Int n);
          ("supersteps", Json.Int rounds);
          ("wall_s", Json.Float wall);
          ("repeats", Json.Int repeats);
          ("edge_scans_per_s", Json.Float rate);
        ]
      :: !cells
  in
  let boxed_comparison = ref Json.Null in
  List.iter
    (fun m ->
      let g = speed_graph ~seed:99L ~m in
      let n = Cutfit.Graph.num_vertices g in
      let a =
        Cutfit.Partitioner.assign (Cutfit.Partitioner.Hash Cutfit.Strategy.Rvc) ~num_partitions g
      in
      let pg = Cutfit.Pgraph.build g ~num_partitions a in
      let c = Cutfit.Csr.build pg in
      (* Every run of [f] executes the same rounds; the row keeps the
         median wall time of [repeats] runs. *)
      let time f =
        let runs =
          Array.init repeats (fun _ ->
              let t0 = Cutfit.Clock.wall () in
              let rounds = f () in
              (rounds, Cutfit.Clock.wall () -. t0))
        in
        Array.sort (fun (_, a) (_, b) -> Float.compare a b) runs;
        runs.(repeats / 2)
      in
      let rounds = ref 0 in
      let pr_rounds, pr_wall =
        time (fun () ->
            ignore (Cutfit.Pagerank.run_csr ~iterations:10 ~domains ~rounds c);
            !rounds)
      in
      record ~algo:"PR" ~m ~n ~rounds:pr_rounds ~wall:pr_wall;
      (* The acceptance comparison: the boxed simulator runs the same 10
         PageRank supersteps on the same partitioned graph at the
         smallest size; wall time is all boxed-representation overhead
         (per-message cost accounting, the frontier and the combiner
         bookkeeping). *)
      if m = List.hd sizes then begin
        let _, boxed_wall =
          time (fun () ->
              ignore (Cutfit.Pagerank.run ~iterations:10 ~cluster:Cutfit.Cluster.config_i pg);
              pr_rounds)
        in
        let speedup = boxed_wall /. Float.max pr_wall 1e-9 in
        record ~algo:"PR (boxed)" ~m ~n ~rounds:pr_rounds ~wall:boxed_wall;
        boxed_comparison :=
          Json.Obj
            [
              ("algorithm", Json.String "PR");
              ("edges", Json.Int m);
              ("supersteps", Json.Int pr_rounds);
              ("boxed_wall_s", Json.Float boxed_wall);
              ("csr_wall_s", Json.Float pr_wall);
              ("speedup", Json.Float speedup);
            ];
        Format.fprintf ppf "boxed vs csr on %s-edge PageRank: %.2fs vs %.3fs — %.1fx@.@."
          (Cutfit.Summary.commas m) boxed_wall pr_wall speedup
      end;
      let cc_rounds, cc_wall =
        time (fun () ->
            ignore (Cutfit.Connected_components.run_csr ~iterations:10 ~domains ~rounds c);
            !rounds)
      in
      record ~algo:"CC" ~m ~n ~rounds:cc_rounds ~wall:cc_wall;
      let landmarks = Cutfit.Sssp.pick_landmarks ~seed:11L ~count:3 g in
      let sssp_rounds, sssp_wall =
        time (fun () ->
            ignore (Cutfit.Sssp.run_csr ~domains ~rounds ~landmarks c);
            !rounds)
      in
      record ~algo:"SSSP" ~m ~n ~rounds:sssp_rounds ~wall:sssp_wall;
      if m <= tr_cap then begin
        let tr_rounds, tr_wall = time (fun () -> ignore (Cutfit.Triangle_count.run_csr ~domains c); 1) in
        record ~algo:"TR" ~m ~n ~rounds:tr_rounds ~wall:tr_wall
      end)
    sizes;
  Format.fprintf ppf "%s@."
    (E.Report.table
       ~header:[ "Algo"; "Edges"; "Vertices"; "Supersteps"; "Wall s"; "Edge scans/s" ]
       ~rows:(List.rev !rows));
  let path = "BENCH_speed.json" in
  E.Export.write_json path
    (Json.Obj
       [
         ("partitions", Json.Int num_partitions);
         ("domains", Json.Int domains);
         ("seed", Json.String "99");
         ("repeats", Json.Int repeats);
         ("boxed_comparison", !boxed_comparison);
         ("kernels", Json.List (List.rev !cells));
       ]);
  Format.fprintf ppf "@.wrote the machine-readable throughput grid to %s@." path

(* --- chaos: a seeded cross-subsystem campaign, timed --- *)

let chaos ppf =
  let module C = Cutfit_chaos in
  let seed = 1 and count = 12 in
  Format.fprintf ppf
    "A %d-scenario seeded chaos campaign (seed %d) over the combined DSL space,@.\
     each scenario fork-isolated through the real engines and the full@.\
     sanitizer battery under a 60 s budget:@.@."
    count seed;
  let c = C.Campaign.run ~budget_s:60.0 ~seed ~count () in
  let rows =
    List.map
      (fun (e : C.Campaign.entry) ->
        let spec = C.Scenario.to_spec e.C.Campaign.scenario in
        [
          string_of_int e.C.Campaign.index;
          C.Runner.outcome_name e.C.Campaign.outcome;
          Printf.sprintf "%.2f" e.C.Campaign.duration_s;
          (if String.length spec <= 60 then spec else String.sub spec 0 57 ^ "...");
        ])
      c.C.Campaign.entries
  in
  Format.fprintf ppf "%s@."
    (E.Report.table ~header:[ "#"; "Outcome"; "Seconds"; "Spec" ] ~rows);
  let total =
    List.fold_left (fun acc e -> acc +. e.C.Campaign.duration_s) 0.0 c.C.Campaign.entries
  in
  Format.fprintf ppf "%d failed, %d hung; %.1f s total; digest %s@."
    (List.length (C.Campaign.failures c))
    (List.length (C.Campaign.hung c))
    total (C.Campaign.digest c);
  let path = "BENCH_chaos.json" in
  E.Export.write_json path
    (Json.Obj
       [
         ("total_s", Json.Float total);
         ( "scenario_s",
           Json.List
             (List.map (fun e -> Json.Float e.C.Campaign.duration_s) c.C.Campaign.entries) );
         ("report", C.Campaign.report_json c);
       ]);
  Format.fprintf ppf "@.wrote the campaign report to %s@." path

let sections =
  [
    ("table1", ("Table 1: dataset characterization (analogues; original sizes alongside)", table1));
    ("figure1", ("Figure 1: in/out-degree distributions (log2 bins)", figure1));
    ("figure2", ("Figure 2: CDF of out-degree / in-degree ratio", figure2));
    ("table2", ("Table 2: partitioning metrics, 128 partitions", table2));
    ("table3", ("Table 3: partitioning metrics, 256 partitions", table3));
    ("figure3", ("Figure 3: PageRank time vs CommCost", figure_for Run.Pagerank "CommCost"));
    ("figure4", ("Figure 4: Connected Components time vs CommCost", figure_for Run.Connected_components "CommCost"));
    ("figure5", ("Figure 5: Triangle Count time vs Cut", figure_for Run.Triangle_count "Cut"));
    ("figure6", ("Figure 6: SSSP time vs CommCost", figure_for Run.Shortest_paths "CommCost"));
    ("checks", ("Shape checks: paper claims vs this reproduction", checks));
    ("infra", ("Infrastructure experiment: PR on follow-dec, configs (ii)/(iii)/(iv)", infra));
    ("ablation", ("Ablation A1: streaming partitioners", ablation_streaming));
    ("advisor", ("Ablation A2: advisor regret", ablation_advisor));
    ("costmodel", ("Ablation A3: TR per-cut-vertex reduction term", ablation_costmodel));
    ("sweep", ("Granularity sweep: 32..512 partitions", sweep));
    ("engines", ("Engine comparison: Pregel vs GAS", engines));
    ("workload", ("Workload engine: scheduling policies x cache budgets", workload));
    ("dynamic", ("Dynamic graphs: incremental refresh vs full rebuild", dynamic));
    ("faults", ("Fault tolerance: checkpoint cadence x fault rate", faults));
    ("resilience", ("Resilience: speculation x straggler intensity x queue bound", resilience));
    ("elastic", ("Elasticity: per-tenant p99 isolation under a noisy-neighbour storm", elastic));
    ("speed", ("Speed: compact CSR kernels, measured edges/sec", speed));
    ("chaos", ("Chaos: seeded cross-subsystem campaign, fork-isolated", chaos));
    ("export", ("CSV + JSON export of the evaluation matrix", export));
    ("telemetry", ("Telemetry: per-superstep observability + JSONL export", telemetry));
    ("micro", ("Micro-benchmarks (bechamel)", micro));
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: ([ _ ] as args) when List.mem (List.hd args) [ "all" ] -> List.map fst sections
    | _ :: [] -> List.map fst sections
    | _ :: args -> args
    | [] -> List.map fst sections
  in
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some (title, f) -> section title f
      | None ->
          Format.eprintf "unknown section %S; available: %s@." name
            (String.concat " " (List.map fst sections));
          exit 1)
    requested
