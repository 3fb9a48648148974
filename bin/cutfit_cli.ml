(* cutfit — command-line front end for the Cut-to-Fit library.

   Subcommands: datasets, generate, characterize, partition, advise,
   run, compare. The heavy experiment reproduction lives in
   bench/main.exe; this tool is for interactive use on single graphs. *)

open Cmdliner

(* Exit-code contract (tested by tools/verify.sh): 0 success, 1 a
   violation or job/run failure, 2 a usage error (bad flag value,
   unknown dataset, malformed fault spec). *)
let exit_ok = 0
let exit_failure = 1
let exit_usage = 2

(* A usage error detected after argument parsing: report and exit 2,
   matching cmdliner's own parse errors. *)
let usage_fail fmt =
  Fmt.kstr
    (fun m ->
      Fmt.epr "cutfit: %s@." m;
      exit exit_usage)
    fmt

let load_graph name_or_path =
  if Sys.file_exists name_or_path then
    match Cutfit.Graph_io.load name_or_path with Ok g -> g | Error msg -> usage_fail "%s" msg
  else begin
    match Cutfit.Datasets.find name_or_path with
    | spec -> Cutfit.Datasets.generate spec
    | exception Not_found ->
        usage_fail "unknown dataset %S (expected a file or one of: %s)" name_or_path
          (String.concat ", " Cutfit.Datasets.names)
  end

let graph_arg =
  let doc = "Dataset name (see $(b,cutfit datasets)) or path to an edge-list file." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"GRAPH" ~doc)

(* An integer flag value in [lo, hi]: anything outside is a usage error
   (exit 2) at parse time. [what] names the value in the error. *)
let int_in ~lo ~hi what =
  let parse s =
    match int_of_string_opt s with
    | Some k when lo <= k && k <= hi -> Ok k
    | Some k when k > hi ->
        Error (`Msg (Printf.sprintf "expected a %s of at most %d, got %S" what hi s))
    | _ -> Error (`Msg (Printf.sprintf "expected a %s of at least %d, got %S" what lo s))
  in
  Arg.conv (parse, Fmt.int)

let positive_int what = int_in ~lo:1 ~hi:max_int what

(* Count ceilings: a count that parses must not size an allocation the
   machine cannot hold. Every per-partition table is O(P); partition and
   advise at the ceiling stay under a 3 GB address space on youtube. *)
let max_partitions = 1 lsl 24
let max_jobs = Cutfit.Spec_error.max_count

(* The OCaml 5.1 runtime's fixed [Max_domains] (caml/domain.h): no more
   domains can run at once on any host. *)
let max_domains = 128

let partitions_arg =
  let doc = Printf.sprintf "Number of edge partitions, at most %d." max_partitions in
  Arg.(
    value
    & opt (int_in ~lo:1 ~hi:max_partitions "partition count") 128
    & info [ "n"; "partitions" ] ~docv:"N" ~doc)

let partitioner_arg =
  let parse s =
    match Cutfit.Partitioner.of_string s with
    | Some p -> Ok p
    | None -> Error (`Msg (Printf.sprintf "unknown partitioner %S" s))
  in
  let print ppf p = Fmt.string ppf (Cutfit.Partitioner.name p) in
  Arg.conv (parse, print)

let algo_arg =
  let parse s =
    match Cutfit.Advisor.algorithm_of_string s with
    | Some a -> Ok a
    | None -> Error (`Msg (Printf.sprintf "unknown algorithm %S (PR, CC, TR, SSSP)" s))
  in
  let print ppf a = Fmt.string ppf (Cutfit.Advisor.algorithm_name a) in
  Arg.(required & pos 0 (some (conv (parse, print))) None & info [] ~docv:"ALGO" ~doc:"PR, CC, TR or SSSP.")

let config_arg =
  let parse s =
    match Cutfit.Cluster.find s with
    | c -> Ok c
    | exception Not_found -> Error (`Msg (Printf.sprintf "unknown configuration %S (i..iv)" s))
  in
  let print ppf c = Fmt.string ppf c.Cutfit.Cluster.name in
  Arg.(value & opt (conv (parse, print)) Cutfit.Cluster.config_i & info [ "c"; "config" ] ~docv:"CFG" ~doc:"Cluster configuration: i, ii, iii or iv.")

let seed_arg ~default ~doc =
  Arg.(value & opt int64 default & info [ "seed" ] ~docv:"SEED" ~doc)

(* --- execution-engine flags shared by run/check --- *)

type engine = Boxed | Csr_engine

let engine_arg =
  let parse = function
    | "boxed" -> Ok Boxed
    | "csr" -> Ok Csr_engine
    | s -> Error (`Msg (Printf.sprintf "unknown engine %S (boxed, csr)" s))
  in
  let print ppf e = Fmt.string ppf (match e with Boxed -> "boxed" | Csr_engine -> "csr") in
  let doc =
    "Execution engine: $(b,boxed) (the simulated GraphX/Spark runtime with its cost model and \
     trace) or $(b,csr) (the compact flat-array kernels executed for real on OCaml domains; \
     reports measured wall time instead of a simulated trace). Values are bit-identical \
     between the two."
  in
  Arg.(value & opt (conv (parse, print)) Boxed & info [ "engine" ] ~docv:"ENGINE" ~doc)

let domains_arg =
  let doc =
    Printf.sprintf
      "Worker domains for $(b,--engine csr) (ignored by the boxed engine), at most %d. \
       Results are bit-identical at any value; see docs/PERFORMANCE.md."
      max_domains
  in
  Arg.(
    value
    & opt (int_in ~lo:1 ~hi:max_domains "domain count") 1
    & info [ "domains" ] ~docv:"N" ~doc)

(* --- telemetry plumbing shared by run/compare --- *)

let trace_out_arg =
  let doc =
    "Write one JSON object per superstep (plus run boundaries) to $(docv). The records carry \
     the full per-superstep signal set: messages, local/remote shuffles, bytes on the wire, \
     per-executor busy and barrier-wait times, and task-skew extrema."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE.jsonl" ~doc)

let verbose_supersteps_arg =
  let doc = "Print every superstep's telemetry record as the run executes." in
  Arg.(value & flag & info [ "verbose-supersteps" ] ~doc)

let paranoid_arg =
  let doc =
    "Run the simulator sanitizer alongside the computation: validate the partition assignment \
     before the distributed graph is built, then cross-check the frozen structure and its \
     metrics (including the replication identity of the paper's \u{00a7}3.1). Any violation \
     aborts with a structured report."
  in
  Arg.(value & flag & info [ "paranoid" ] ~doc)

(* The sinks the --trace-out and --verbose-supersteps flags ask for. A
   trace file that cannot be opened fails the run (exit 1). *)
let sinks_of_flags ~trace_out ~verbose =
  (match trace_out with
  | Some path -> (
      match Cutfit.Sink.jsonl path with
      | sink -> [ sink ]
      | exception Sys_error msg ->
          Fmt.epr "cutfit: cannot open trace file: %s@." msg;
          exit exit_failure)
  | None -> [])
  @ if verbose then [ Cutfit.Sink.console Format.std_formatter ] else []

(* Build a telemetry handle from the CLI flags, or [None] when neither
   flag asks for one (keeping the engines' zero-allocation path). The
   returned closer finishes the sinks and reports where the trace went. *)
let telemetry_of_flags ~trace_out ~verbose =
  match sinks_of_flags ~trace_out ~verbose with
  | [] -> (None, fun () -> ())
  | sinks ->
      let t = Cutfit.Telemetry.create ~sinks () in
      ( Some t,
        fun () ->
          Cutfit.Telemetry.close t;
          match trace_out with
          | Some path -> Fmt.pr "wrote %d telemetry events to %s@." (Cutfit.Telemetry.events_emitted t) path
          | None -> () )

(* Surface sanitizer violations as a readable report + exit 1 instead of
   an uncaught-exception backtrace. *)
let with_violation_report f =
  match f () with
  | v -> v
  | exception Cutfit.Check.Violation.Violations vs ->
      Fmt.epr "cutfit: sanitizer violations:@.%a@." Cutfit.Check.Violation.pp_list vs;
      exit exit_failure

(* --- fault-injection flags shared by run/compare/check/workload --- *)

let faults_spec_arg =
  let doc =
    "Inject a deterministic fault schedule into every Pregel/GAS run. $(docv) is a \
     comma-separated list of: $(b,crash@K)[:eE] (executor loss at superstep K), \
     $(b,straggler@K-L)[:eE][:xF] (xF slowdown over K..L), $(b,net@K-L)[:xF] (bandwidth \
     degraded to xF), $(b,loss@K)[:eE][:rN] (transient shuffle loss, N retransmissions), \
     $(b,rand@R) (each superstep fires one random fault with probability R). Faults perturb \
     only the simulated time accounting — final vertex values stay bit-identical."
  in
  Arg.(value & opt (some string) None & info [ "faults" ] ~docv:"SPEC" ~doc)

let checkpoint_every_arg =
  let doc =
    "Write a superstep checkpoint every $(docv) compute supersteps (costed via the storage \
     bandwidth of the cost model). Rollback recovery replays from the last checkpoint."
  in
  Arg.(value & opt (some (positive_int "step count")) None & info [ "checkpoint-every" ] ~docv:"N" ~doc)

let fault_seed_arg =
  Arg.(
    value & opt int 42
    & info [ "fault-seed" ] ~docv:"SEED"
        ~doc:"Seed of the fault schedule's random draws (executor choices, rand@R firings).")

let fault_mode_arg =
  Arg.(
    value & opt string "rollback"
    & info [ "fault-mode" ] ~docv:"MODE"
        ~doc:
          "Recovery mode after an executor loss: $(b,rollback) (restart from the last \
           checkpoint and replay) or $(b,lineage) (rebuild only the lost partitions).")

let max_failures_arg =
  Arg.(
    value & opt int 2
    & info [ "max-failures" ] ~docv:"K"
        ~doc:"Executor losses tolerated per run; one more aborts the run.")

(* --- speculative re-execution flags shared by run/compare/check/workload --- *)

let speculate_arg =
  let doc =
    "Launch a priced speculative clone of a straggling executor's superstep tasks on the \
     least-loaded executor; the earlier finisher wins. Like faults, speculation perturbs only \
     the simulated time accounting — final vertex values stay bit-identical."
  in
  Arg.(value & flag & info [ "speculate" ] ~doc)

let speculate_threshold_arg =
  Arg.(
    value & opt float 2.0
    & info [ "speculate-threshold" ] ~docv:"X"
        ~doc:
          "Multiple of the median per-executor busy time past which the slowest executor is \
           declared a straggler (>= 1).")

(* The what-if flags run/compare/check/workload share, read into one
   [Pricer.what_if] with its scale events and hosts left static (run
   and check set those from their own flags), paired with the fault
   seed that also keys those. A malformed fault spec or threshold
   raises [Spec_error.Error], which the one handler in the entry point
   below reports as a usage error. *)
let what_if_term =
  let read faults_spec checkpoint_every fault_seed fault_mode max_failures speculate threshold =
    let faults =
      Option.map
        (fun raw ->
          let mode = Cutfit.Faults.mode_of_name fault_mode in
          Cutfit.Faults.config ~seed:fault_seed ~max_failures ~mode raw)
        faults_spec
    in
    let speculation =
      if speculate then Some (Cutfit.Speculation.config ~threshold ~seed:fault_seed ()) else None
    in
    ({ Cutfit.Pricer.static with checkpoint_every; faults; speculation }, fault_seed)
  in
  Term.(
    const read $ faults_spec_arg $ checkpoint_every_arg $ fault_seed_arg $ fault_mode_arg
    $ max_failures_arg $ speculate_arg $ speculate_threshold_arg)

(* --- elasticity / heterogeneity flags shared by run/check/workload --- *)

let scale_events_arg =
  let doc =
    "Apply a deterministic scale-event schedule: comma-separated $(b,join@T+N) (N executors \
     join before superstep T), $(b,leave@T-N) (N executors drain and leave) and \
     $(b,preempt@T:rN) (a spot instance is reclaimed and reacquired after N backoff \
     retries). Membership changes trigger priced re-shuffles, itemized in the trace; like \
     faults, scale events perturb only time and locality — final vertex values stay \
     bit-identical to a static cluster. Under $(b,workload) the schedule instead drives the \
     executor slots: leaves drain, joins add capacity, preemptions requeue the running job \
     without consuming its retry budget."
  in
  Arg.(value & opt (some string) None & info [ "scale-events" ] ~docv:"SPEC" ~doc)

let hetero_arg =
  let doc =
    "Give the executors heterogeneous capabilities: $(b,draw) (seeded speed/bandwidth \
     multipliers in [0.6, 1.4], keyed on $(b,--fault-seed)) or an explicit comma-separated \
     list of $(b,SPEED)[/$(b,BANDWIDTH)] multipliers, one per executor (cycled when fewer \
     are given). Busy time divides by speed, egress bandwidth multiplies by bandwidth; \
     values stay bit-identical to the homogeneous model."
  in
  Arg.(value & opt (some string) None & info [ "hetero" ] ~docv:"SPEC" ~doc)

let elastic_of_flags ~spec ~fault_seed = Option.map (Cutfit.Elastic.config ~seed:fault_seed) spec

let hetero_of_flags ~spec ~executors ~fault_seed =
  match spec with
  | None -> None
  | Some "draw" -> Some (Cutfit.Elastic.draw_hetero ~seed:fault_seed ~executors)
  | Some raw -> Some (Cutfit.Elastic.hetero_of_spec ~executors raw)

(* --- dynamic-graph (mutation) flags shared by workload/check/mutate --- *)

let mutation_seed_arg =
  Arg.(
    value & opt int 42
    & info [ "mutation-seed" ] ~docv:"SEED"
        ~doc:"Seed of the mutation batches' endpoint and victim draws.")

let mutations_of_flags ~spec ~seed = Option.map (Cutfit.Mutation.config ~seed) spec

(* --- datasets --- *)

let datasets_cmd =
  let action () =
    List.iter
      (fun spec ->
        Fmt.pr "%-16s %-16s original: %s vertices, %s edges@." spec.Cutfit.Datasets.name
          spec.Cutfit.Datasets.display
          (Cutfit.Summary.commas spec.Cutfit.Datasets.paper_vertices)
          (Cutfit.Summary.commas spec.Cutfit.Datasets.paper_edges))
      Cutfit.Datasets.all;
    exit_ok
  in
  Cmd.v (Cmd.info "datasets" ~doc:"List the built-in dataset analogues.")
    Term.(const action $ const ())

(* --- generate --- *)

let generate_cmd =
  let output =
    Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output edge-list path.")
  in
  let action graph output =
    let g = load_graph graph in
    Cutfit.Graph_io.save output g;
    Fmt.pr "wrote %s edges to %s@."
      (Cutfit.Summary.commas (Cutfit.Graph.num_edges g))
      output;
    exit_ok
  in
  Cmd.v (Cmd.info "generate" ~doc:"Generate a dataset analogue and save it as an edge list.")
    Term.(const action $ graph_arg $ output)

(* --- characterize --- *)

let characterize_cmd =
  let action graph =
    let g = load_graph graph in
    let c = Cutfit.Characterize.compute g in
    Fmt.pr "%a@." Cutfit.Characterize.pp c;
    exit_ok
  in
  Cmd.v (Cmd.info "characterize" ~doc:"Measure the Table-1 characterization of a graph.")
    Term.(const action $ graph_arg)

(* --- partition --- *)

let partition_cmd =
  let strategy =
    Arg.(value & opt (some partitioner_arg) None & info [ "p"; "partitioner" ] ~docv:"P" ~doc:"Partitioner (default: all six).")
  in
  let action graph num_partitions strategy =
    let g = load_graph graph in
    let ps = match strategy with Some p -> [ p ] | None -> Cutfit.Partitioner.paper_six in
    List.iter
      (fun p ->
        let a = Cutfit.Partitioner.assign p ~num_partitions g in
        let m = Cutfit.Metrics.compute g ~num_partitions a in
        Fmt.pr "%-6s %a@." (Cutfit.Partitioner.name p) Cutfit.Metrics.pp m)
      ps;
    exit_ok
  in
  Cmd.v (Cmd.info "partition" ~doc:"Partition a graph and print the five paper metrics.")
    Term.(const action $ graph_arg $ partitions_arg $ strategy)

(* --- advise --- *)

let advise_cmd =
  let graph_pos1 =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"GRAPH" ~doc:"Dataset or file.")
  in
  let action algo graph num_partitions =
    let g = load_graph graph in
    let ranked = Cutfit.Advisor.measure algo ~num_partitions g in
    let strategy = Cutfit.Advisor.advise ~ranked algo ~scale:1.0 ~num_partitions g in
    Fmt.pr "advised partitioner for %s at %d partitions: %s (optimizes %s)@."
      (Cutfit.Advisor.algorithm_name algo)
      num_partitions
      (Cutfit.Strategy.to_string strategy)
      (Cutfit.Advisor.predictive_metric algo);
    List.iter
      (fun r ->
        Fmt.pr "  %-6s %s = %s@."
          (Cutfit.Strategy.to_string r.Cutfit.Advisor.strategy)
          (Cutfit.Advisor.predictive_metric algo)
          (Cutfit_experiments.Report.fsig r.Cutfit.Advisor.score))
      ranked;
    exit_ok
  in
  Cmd.v (Cmd.info "advise" ~doc:"Recommend a partitioner for an algorithm on a graph.")
    Term.(const action $ algo_arg $ graph_pos1 $ partitions_arg)

(* --- run --- *)

let run_cmd =
  let graph_pos1 =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"GRAPH" ~doc:"Dataset or file.")
  in
  let strategy =
    Arg.(value & opt (some partitioner_arg) None & info [ "p"; "partitioner" ] ~docv:"P" ~doc:"Partitioner (default: advised).")
  in
  let action algo graph config partitioner seed engine domains
      ((what_if : Cutfit.Pricer.what_if), fault_seed) scale_events hetero_spec capability trace_out
      verbose paranoid =
    let g = load_graph graph in
    let executors = config.Cutfit.Cluster.executors in
    let w =
      {
        what_if with
        elastic = elastic_of_flags ~spec:scale_events ~fault_seed;
        hetero = hetero_of_flags ~spec:hetero_spec ~executors ~fault_seed;
      }
    in
    let partitioner =
      if not capability then partitioner
      else
        match (w.hetero, partitioner) with
        | None, _ -> usage_fail "--capability requires --hetero (it weights by host speed)"
        | Some _, Some _ -> usage_fail "--capability and --partitioner are mutually exclusive"
        | Some h, None ->
            Some (Cutfit.Partitioner.capability ~speeds:h.Cutfit.Elastic.speeds ~executors)
    in
    let telemetry, finish_telemetry = telemetry_of_flags ~trace_out ~verbose in
    let p =
      with_violation_report (fun () ->
          Cutfit.Pipeline.prepare ~check:paranoid ~cluster:config ?partitioner ~what_if:w
            ?telemetry ~algorithm:algo g)
    in
    Fmt.pr "partitioner: %s, %s@."
      (Cutfit.Partitioner.name p.Cutfit.Pipeline.partitioner)
      (Cutfit.Cluster.describe config);
    (match w.faults with
    | Some f -> Fmt.pr "faults: %s@." (Cutfit.Faults.describe f)
    | None -> ());
    (match w.speculation with
    | Some s ->
        Fmt.pr "speculation: on (threshold x%g over the median executor busy time)@."
          s.Cutfit.Speculation.threshold
    | None -> ());
    (match w.elastic with
    | Some e -> Fmt.pr "scale events: %s@." (Cutfit.Elastic.describe e)
    | None -> ());
    (match w.hetero with
    | Some h -> Fmt.pr "hetero: %s@." (Cutfit.Elastic.describe_hetero h)
    | None -> ());
    let (Cutfit.Pipeline.Algo a) =
      Cutfit.Pipeline.algo ~landmarks:(lazy (Cutfit.Sssp.pick_landmarks ~seed ~count:5 g)) algo
    in
    match engine with
    | Csr_engine ->
        (match w with
        | { faults = None; speculation = None; elastic = None; hetero = None; _ } -> ()
        | _ ->
            Fmt.pr
              "note: --faults/--speculate/--scale-events/--hetero perturb only the simulated \
               engines; the csr engine runs them statically (values are identical either \
               way)@.");
        let c = Cutfit.Csr.build p.Cutfit.Pipeline.pg in
        let edges = Cutfit.Graph.num_edges p.Cutfit.Pipeline.graph in
        let rounds = ref 1 in
        let t0 = Cutfit.Clock.wall () in
        Fmt.pr "%s@." (a.summary (a.kernel.Cutfit.Check.Kernel_check.csr ~domains ~rounds c));
        let elapsed = Cutfit.Clock.wall () -. t0 in
        let scans = edges * !rounds in
        Fmt.pr "csr engine: %d domain(s), %d superstep(s), %.4f s measured, %s edge scans/s@."
          domains !rounds elapsed
          (Cutfit.Summary.commas
             (int_of_float (float_of_int scans /. Float.max elapsed 1e-9)));
        finish_telemetry ();
        exit_ok
    | Boxed ->
        let values, trace = a.run p in
        (* An out-of-memory or aborted run stopped with the values it had. *)
        if Cutfit.Trace.completed trace then Fmt.pr "%s@." (a.summary values)
        else
          Fmt.pr "%s (partial: the run ended %s)@." (a.summary values)
            (Cutfit.Trace.outcome_name trace.Cutfit.Trace.outcome);
        Fmt.pr "%a@." Cutfit.Trace.pp_summary trace;
        (match w.elastic with
        | Some _ ->
            Fmt.pr "reshuffles: %d membership change(s), %s bytes re-shipped@."
              (Cutfit.Trace.num_reshuffles trace)
              (Cutfit.Summary.commas
                 (int_of_float (Cutfit.Trace.total_reshuffle_wire_bytes trace)))
        | None -> ());
        finish_telemetry ();
        (* A run whose cluster died past the crash budget is a failed job. *)
        if trace.Cutfit.Trace.outcome = Cutfit.Trace.Aborted then exit_failure else exit_ok
  in
  let capability_arg =
    let doc =
      "Partition with the capability-aware placement: edges are hashed into speed-weighted \
       ranges so faster hosts (per $(b,--hetero)) receive proportionally more of the cut. \
       Requires $(b,--hetero); mutually exclusive with $(b,--partitioner)."
    in
    Arg.(value & flag & info [ "capability" ] ~doc)
  in
  Cmd.v (Cmd.info "run" ~doc:"Run an algorithm on a partitioned graph and print the simulated trace.")
    Term.(
      const action $ algo_arg $ graph_pos1 $ config_arg $ strategy
      $ seed_arg ~default:5L ~doc:"Seed of the SSSP landmark choice (other algorithms ignore it)."
      $ engine_arg $ domains_arg $ what_if_term $ scale_events_arg $ hetero_arg $ capability_arg
      $ trace_out_arg $ verbose_supersteps_arg $ paranoid_arg)

(* --- compare --- *)

let compare_cmd =
  let graph_pos1 =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"GRAPH" ~doc:"Dataset or file.")
  in
  let action algo graph config seed (what_if, _) trace_out verbose paranoid =
    let g = load_graph graph in
    let telemetry, finish_telemetry = telemetry_of_flags ~trace_out ~verbose in
    List.iter
      (fun (name, t) -> Fmt.pr "%-10s %s@." name (Cutfit_experiments.Report.seconds t))
      (with_violation_report (fun () ->
           Cutfit.Pipeline.compare_partitioners ~check:paranoid ~cluster:config ~seed ~what_if
             ?telemetry ~algorithm:algo g));
    finish_telemetry ();
    exit_ok
  in
  Cmd.v (Cmd.info "compare" ~doc:"Compare simulated job time across the six partitioners.")
    Term.(
      const action $ algo_arg $ graph_pos1 $ config_arg
      $ seed_arg ~default:11L ~doc:"Seed of the SSSP landmark choice (other algorithms ignore it)."
      $ what_if_term $ trace_out_arg $ verbose_supersteps_arg $ paranoid_arg)

(* --- workload --- *)

let workload_cmd =
  let module W = Cutfit_workload in
  let mix_arg =
    let doc =
      Printf.sprintf "Job mix: %s." (String.concat ", " Cutfit_workload.Job.mix_names)
    in
    Arg.(value & opt string "uniform" & info [ "m"; "mix" ] ~docv:"MIX" ~doc)
  in
  let jobs_arg =
    let doc = Printf.sprintf "Number of jobs to generate, at most %d." max_jobs in
    Arg.(value & opt (int_in ~lo:0 ~hi:max_jobs "job count") 40 & info [ "j"; "jobs" ] ~docv:"N" ~doc)
  in
  let policy_arg =
    Arg.(
      value & opt string "fifo"
      & info [ "policy" ] ~docv:"POLICY"
          ~doc:"Scheduling policy: fifo, or sjf (shortest predicted job first).")
  in
  let select_arg =
    Arg.(
      value & opt string "cache-aware"
      & info [ "select" ] ~docv:"MODE"
          ~doc:
            "Strategy selection per job: heuristic (the paper's rules), measured (rank all \
             candidates), or cache-aware (prefer a cached partitioning when its predicted \
             penalty is below the threshold).")
  in
  let threshold_arg =
    Arg.(
      value & opt float 0.25
      & info [ "threshold" ] ~docv:"T"
          ~doc:
            "Cache-aware acceptance threshold: maximum relative predictive-metric penalty of a \
             cached strategy over the best one.")
  in
  let cache_gb_arg =
    Arg.(
      value & opt float 8.0
      & info [ "cache-gb" ] ~docv:"GB"
          ~doc:"Partitioning-cache budget in paper-scale gigabytes; 0 disables the cache.")
  in
  let eviction_arg =
    Arg.(
      value & opt string "lru"
      & info [ "eviction" ] ~docv:"POLICY"
          ~doc:"Cache eviction policy: lru, or cost (cheapest to rebuild per byte goes first).")
  in
  let slots_arg =
    let doc = Printf.sprintf "Concurrent executor slots, at most %d." max_jobs in
    Arg.(value & opt (int_in ~lo:1 ~hi:max_jobs "slot count") 2 & info [ "slots" ] ~docv:"K" ~doc)
  in
  let verbose_events_arg =
    Arg.(
      value & flag
      & info [ "verbose-events" ] ~doc:"Print every job and cache event as the simulation runs.")
  in
  let check_arg =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Run the workload sanitizer: cache accounting conservation, per-job cost \
             decomposition, reconciliation of the whole event stream with the report (every \
             job event names a known job; counts match the attempts, retries, sheds, scale \
             changes and cache operations), and the run-twice determinism digest. Exits \
             non-zero on any violation.")
  in
  let max_retries_arg =
    Arg.(
      value & opt int 2
      & info [ "max-retries" ] ~docv:"N"
          ~doc:
            "Requeue a job whose cluster died up to $(docv) times (capped exponential \
             backoff); past that the job fails permanently.")
  in
  let queue_bound_arg =
    Arg.(
      value & opt (some int) None
      & info [ "queue-bound" ] ~docv:"N"
          ~doc:
            "Admission-control queue capacity: a first-attempt job meeting a full queue is \
             shed per $(b,--shed-policy). Retries bypass the bound. Unbounded by default.")
  in
  let shed_policy_arg =
    Arg.(
      value & opt string "reject"
      & info [ "shed-policy" ] ~docv:"POLICY"
          ~doc:
            "What to shed when the bounded queue is full: $(b,reject) (the incoming job) or \
             $(b,drop-oldest) (displace the longest-waiting queued job).")
  in
  let deadline_s_arg =
    Arg.(
      value & opt (some float) None
      & info [ "deadline-s" ] ~docv:"S"
          ~doc:
            "Absolute per-job SLO deadline: arrival + $(docv) simulated seconds. A queued job \
             past its deadline is culled; a running job is cancelled at the deadline instant.")
  in
  let deadline_factor_arg =
    Arg.(
      value & opt (some float) None
      & info [ "deadline-factor" ] ~docv:"F"
          ~doc:
            "Predicted-service SLO deadline: arrival + $(docv) x the advisor-predicted service \
             time at admission. Mutually exclusive with $(b,--deadline-s).")
  in
  let breaker_k_arg =
    Arg.(
      value & opt (some int) None
      & info [ "breaker-k" ] ~docv:"K"
          ~doc:
            "Arm a per-(dataset, strategy) circuit breaker: $(docv) consecutive failed \
             attempts open it, degrading selection to the cheapest cached strategy until a \
             probe succeeds after the cooldown.")
  in
  let breaker_cooldown_arg =
    Arg.(
      value & opt float 60.0
      & info [ "breaker-cooldown" ] ~docv:"S"
          ~doc:"Seconds an open breaker blocks its strategy before a half-open probe.")
  in
  let backpressure_arg =
    Arg.(
      value & opt (some int) None
      & info [ "backpressure" ] ~docv:"N"
          ~doc:
            "Queue-depth watermark past which strategy selection degrades to the cheapest \
             cached partitioning (skip builds while the cluster is drowning).")
  in
  let mutations_arg =
    let doc =
      "Interleave seeded edge mutation batches with the jobs: every $(b,--mutate-every)-th \
       launch first lands the next batch on its own dataset, partially invalidating the cache \
       and taking the priced refresh-vs-rebuild decision per $(b,--mutation-mode). $(docv) is \
       a comma-separated list of $(b,ins@B)[:rN] and $(b,del@B)[:rN] items (B a batch \
       number or window $(b,B-C); N edges, default 32)."
    in
    Arg.(value & opt (some string) None & info [ "mutations" ] ~docv:"SPEC" ~doc)
  in
  let mutate_every_arg =
    Arg.(
      value & opt int 8
      & info [ "mutate-every" ] ~docv:"N"
          ~doc:"Job launches between mutation batches (with $(b,--mutations)).")
  in
  let mutation_mode_arg =
    Arg.(
      value & opt string "priced"
      & info [ "mutation-mode" ] ~docv:"MODE"
          ~doc:
            "Refresh-vs-rebuild decision per batch: $(b,priced) (ask the cost model), \
             $(b,refresh) (always repair incrementally), or $(b,rebuild) (always drop cold).")
  in
  let tenants_arg =
    let doc =
      "Tag the job stream with tenants: a comma-separated list of $(b,NAME)[:$(b,SHARE)] \
       entries (share defaults to 1). Each job's owner is a seeded weighted draw, so the \
       stream stays bit-reproducible; without this flag every job belongs to the single \
       default tenant."
    in
    Arg.(value & opt (some string) None & info [ "tenants" ] ~docv:"SPEC" ~doc)
  in
  let tenant_weights_arg =
    let doc =
      "Fair-share weights for $(b,--fairness): comma-separated $(b,NAME)[:$(b,WEIGHT)] \
       entries (weight defaults to 1; unlisted tenants get 1). A tenant with weight 2 is \
       entitled to twice the busy time of a tenant with weight 1."
    in
    Arg.(value & opt (some string) None & info [ "tenant-weights" ] ~docv:"SPEC" ~doc)
  in
  let fairness_arg =
    let doc =
      "Weighted fair sharing across tenants: each freed slot goes to the runnable tenant with \
       the smallest busy-time/weight deficit, with $(b,--policy) ordering jobs within the \
       chosen tenant. The scheduler's choices are independently recounted \
       ($(b,fairness_violations) must stay 0)."
    in
    Arg.(value & flag & info [ "fairness" ] ~doc)
  in
  let tenant_quota_arg =
    let doc =
      "Per-tenant admission quota: a first-attempt job finding $(docv) of its tenant's jobs \
       already pending is shed with policy $(b,quota) (and a $(b,Tenant_throttle) event). \
       Retries bypass the quota."
    in
    Arg.(value & opt (some int) None & info [ "tenant-quota" ] ~docv:"N" ~doc)
  in
  let tenant_deadline_arg =
    let doc =
      "Per-tenant SLO overrides: comma-separated $(b,NAME):$(b,SECONDS) entries giving the \
       tenant's jobs an absolute arrival-relative deadline, overriding $(b,--deadline-s) / \
       $(b,--deadline-factor) for that tenant."
    in
    Arg.(value & opt (some string) None & info [ "tenant-deadline" ] ~docv:"SPEC" ~doc)
  in
  let action mix_name jobs seed policy_name select_name threshold cache_gb eviction_name slots
      ((w : Cutfit.Pricer.what_if), fault_seed) max_retries queue_bound shed_policy_name
      deadline_s deadline_factor breaker_k breaker_cooldown backpressure mutations_spec
      mutation_seed mutate_every mutation_mode_name scale_events_spec tenants_spec
      tenant_weights_spec fairness tenant_quota tenant_deadline_spec trace_out verbose check =
    let fail fmt = usage_fail fmt in
    let mix =
      match W.Job.find_mix mix_name with
      | Some m -> m
      | None -> fail "unknown mix %S (expected one of: %s)" mix_name (String.concat ", " W.Job.mix_names)
    in
    let policy =
      match W.Engine.policy_of_string policy_name with
      | Some p -> p
      | None -> fail "unknown policy %S (fifo, sjf)" policy_name
    in
    let selection =
      match W.Engine.selection_of_string ~threshold select_name with
      | Some s -> s
      | None -> fail "unknown selection mode %S (heuristic, measured, cache-aware)" select_name
    in
    let eviction =
      match W.Cache.eviction_of_string eviction_name with
      | Some e -> e
      | None -> fail "unknown eviction policy %S (lru, cost)" eviction_name
    in
    let shed_policy =
      match W.Engine.shed_policy_of_string shed_policy_name with
      | Some p -> p
      | None -> fail "unknown shed policy %S (reject, drop-oldest)" shed_policy_name
    in
    let deadline =
      match (deadline_s, deadline_factor) with
      | None, None -> None
      | Some s, None -> Some (W.Engine.Absolute s)
      | None, Some f -> Some (W.Engine.Factor f)
      | Some _, Some _ -> fail "--deadline-s and --deadline-factor are mutually exclusive"
    in
    let mutations = mutations_of_flags ~spec:mutations_spec ~seed:mutation_seed in
    let mutation_mode =
      match W.Engine.mutation_mode_of_string mutation_mode_name with
      | Some m -> m
      | None -> fail "unknown mutation mode %S (priced, refresh, rebuild)" mutation_mode_name
    in
    let scale_events = elastic_of_flags ~spec:scale_events_spec ~fault_seed in
    (* NAME[:VALUE] comma lists shared by --tenants / --tenant-weights /
       --tenant-deadline. Tenant names must be usable as breaker-scope
       prefixes, so the entry reader rejects '/' with exit 2 rather than
       letting Job.generate's Invalid_argument map to exit 1. *)
    let tenant_entries ~flag spec =
      List.map (fun e -> Cutfit.Spec_error.entry ~dsl:flag ~item:e e) (Cutfit.Spec_error.items spec)
    in
    let tenants =
      match tenants_spec with
      | None -> None
      | Some s -> (
          match
            List.map (fun (n, v) -> (n, Option.value ~default:1.0 v)) (tenant_entries ~flag:"tenants" s)
          with
          | [] -> None
          | l -> Some l)
    in
    let tenant_weights =
      match tenant_weights_spec with
      | None -> []
      | Some s ->
          List.map
            (fun (n, v) -> (n, Option.value ~default:1.0 v))
            (tenant_entries ~flag:"tenant-weights" s)
    in
    let tenant_deadlines =
      match tenant_deadline_spec with
      | None -> []
      | Some s ->
          List.map
            (fun (n, v) ->
              match v with
              | Some secs -> (n, W.Engine.Absolute secs)
              | None -> fail "bad --tenant-deadline entry %S (expected NAME:SECONDS)" n)
            (tenant_entries ~flag:"tenant-deadline" s)
    in
    let sinks = sinks_of_flags ~trace_out ~verbose in
    let run ?telemetry () =
      W.Engine.run ~slots ~eviction ~budget_bytes:(cache_gb *. 1.0e9)
        ?checkpoint_every:w.checkpoint_every ?faults:w.faults ?speculation:w.speculation
        ~max_retries ?queue_bound ~shed_policy ?deadline ?breaker_k
        ~breaker_cooldown_s:breaker_cooldown ?backpressure ~policy ~selection ?telemetry
        ?mutations ~mutate_every ~mutation_mode ?scale_events ~tenant_weights ?tenant_quota
        ~tenant_deadlines ~fairness ~seed
        (W.Job.generate ~seed ~jobs ?tenants mix)
    in
    (* With --check the printed run is the sanitized one: checked
       against its own event stream, then replayed once untraced. The
       engine validates every numeric knob; a rejected one is a usage
       error. *)
    let report, checked =
      if check then
        let r, digest, vs =
          W.Workload_check.check_run
            ~label:(Printf.sprintf "workload %s seed %Ld" mix_name seed)
            ~sinks run
        in
        (r, Some (digest, vs))
      else
        let telemetry = if sinks = [] then None else Some (Cutfit.Telemetry.create ~sinks ()) in
        let r = run ?telemetry () in
        Option.iter Cutfit.Telemetry.close telemetry;
        (r, None)
    in
    let rows =
      List.map
        (fun (r : W.Engine.job_record) ->
          [
            string_of_int r.W.Engine.job.W.Job.id;
            Cutfit.Advisor.algorithm_name r.W.Engine.job.W.Job.algorithm;
            Printf.sprintf "%s/%d" r.W.Engine.job.W.Job.dataset r.W.Engine.job.W.Job.num_partitions;
            r.W.Engine.start.Cutfit.Event.strategy;
            (if r.W.Engine.start.Cutfit.Event.cache_hit then "hit" else "miss");
            string_of_int r.W.Engine.attempts;
            Cutfit_experiments.Report.fsig r.W.Engine.start.Cutfit.Event.queue_s;
            Cutfit_experiments.Report.fsig r.W.Engine.partition_s;
            Cutfit_experiments.Report.fsig r.W.Engine.exec_s;
            Cutfit_experiments.Report.fsig r.W.Engine.finish_s;
            r.W.Engine.outcome;
          ])
        report.W.Engine.records
    in
    Fmt.pr "%s@."
      (Cutfit_experiments.Report.table
         ~header:
           [ "job"; "algo"; "dataset"; "strategy"; "cache"; "try"; "queue"; "partition"; "exec";
             "finish"; "outcome" ]
         ~rows);
    Fmt.pr "%a@." W.Engine.pp_summary report;
    (match trace_out with
    | Some path -> Fmt.pr "wrote workload events to %s@." path
    | None -> ());
    let check_code =
      match checked with
      | None -> exit_ok
      | Some (digest, []) ->
          Fmt.pr "workload check: ok (digest %s)@." digest;
          exit_ok
      | Some (_, vs) ->
          Fmt.epr "cutfit: workload sanitizer violations:@.%a@." Cutfit.Check.Violation.pp_list vs;
          exit_failure
    in
    if W.Engine.failed_jobs report > 0 then begin
      Fmt.epr "cutfit: %d job(s) failed permanently@." (W.Engine.failed_jobs report);
      exit_failure
    end
    else check_code
  in
  Cmd.v
    (Cmd.info "workload"
       ~doc:
         "Simulate a multi-job cluster workload: a seeded job stream scheduled over executor \
          slots, with advisor-driven strategy selection and a budgeted partitioning cache.")
    Term.(
      const action $ mix_arg $ jobs_arg
      $ seed_arg ~default:7L ~doc:"Seed of the job stream (and of each SSSP job's landmarks)."
      $ policy_arg $ select_arg $ threshold_arg $ cache_gb_arg $ eviction_arg $ slots_arg
      $ what_if_term $ max_retries_arg $ queue_bound_arg $ shed_policy_arg $ deadline_s_arg
      $ deadline_factor_arg $ breaker_k_arg $ breaker_cooldown_arg $ backpressure_arg
      $ mutations_arg $ mutation_seed_arg $ mutate_every_arg $ mutation_mode_arg
      $ scale_events_arg $ tenants_arg $ tenant_weights_arg $ fairness_arg $ tenant_quota_arg
      $ tenant_deadline_arg $ trace_out_arg $ verbose_events_arg $ check_arg)

(* --- check --- *)

let check_cmd =
  let graph_pos1 =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"GRAPH" ~doc:"Dataset or file.")
  in
  let strategy =
    Arg.(value & opt (some partitioner_arg) None & info [ "p"; "partitioner" ] ~docv:"P" ~doc:"Partitioner (default: advised).")
  in
  let races_arg =
    let doc =
      "Add the $(b,races) suite: run the compact kernels with the shadow write-ownership \
       recorder at domain counts 1, 2, 4 and $(b,--domains), and self-test the detector \
       against two seeded race corruptions."
    in
    Arg.(value & flag & info [ "races" ] ~doc)
  in
  let dynamic_arg =
    let doc =
      "Add the $(b,dynamic) suite: replay $(docv) (a mutation spec; the flag alone uses \
       $(b,ins@1-2:r48,del@1-2:r16)) from a fresh streaming cut of the same graph and \
       prove the delta-identity, cut-law, refresh-rebuild-equivalence and moved-replicas \
       laws of the dynamic-graph subsystem."
    in
    Arg.(
      value
      & opt ~vopt:(Some "ins@1-2:r48,del@1-2:r16") (some string) None
      & info [ "dynamic" ] ~docv:"SPEC" ~doc)
  in
  let elastic_check_arg =
    let doc =
      "Add the $(b,elastic) suite: run the pipeline under $(docv) (a scale-event spec; the \
       flag alone uses $(b,leave@2-1,join@4+2)), replay it on a static cluster, and prove \
       membership churn perturbed only time and locality — bit-identical vertex values, \
       unchanged placement-independent structure, an unbroken membership chain through the \
       reshuffle records."
    in
    Arg.(
      value
      & opt ~vopt:(Some "leave@2-1,join@4+2") (some string) None
      & info [ "elastic" ] ~docv:"SPEC" ~doc)
  in
  let action algo graph config partitioner engine domains races dynamic_spec mutation_seed
      ((w : Cutfit.Pricer.what_if), fault_seed) elastic_spec hetero_spec =
    let g = load_graph graph in
    let dynamic = mutations_of_flags ~spec:dynamic_spec ~seed:mutation_seed in
    let elastic = elastic_of_flags ~spec:elastic_spec ~fault_seed in
    let hetero =
      hetero_of_flags ~spec:hetero_spec ~executors:config.Cutfit.Cluster.executors ~fault_seed
    in
    (* With the csr engine, also prove boxed-vs-csr bit-identity at the
       standard domain counts plus whatever --domains asked for. *)
    let engine_domains =
      match engine with
      | Boxed -> None
      | Csr_engine -> Some (List.sort_uniq Int.compare (domains :: [ 1; 2; 4 ]))
    in
    let race_domains =
      if races then Some (List.sort_uniq Int.compare (domains :: [ 1; 2; 4 ])) else None
    in
    let report =
      Cutfit.Sanitize.check_run ~cluster:config ?partitioner ?checkpoint_every:w.checkpoint_every
        ?faults:w.faults ?speculation:w.speculation ?elastic ?hetero ?engine_domains
        ?race_domains ?dynamic ~algorithm:algo g
    in
    Fmt.pr "%a@." Cutfit.Sanitize.pp_report report;
    if Cutfit.Sanitize.ok report then exit_ok else exit_failure
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Run the full simulator sanitizer on one algorithm/graph pair: partition structure, \
          metrics recomputation, trace conservation laws, telemetry reconciliation, and the \
          run-twice determinism digest. With $(b,--faults) or $(b,--speculate), a sixth suite \
          proves the value-equivalence invariant against a clean baseline. With \
          $(b,--engine csr), an $(b,engines) suite proves the compact kernels reproduce the \
          boxed engine's values bit-for-bit at domain counts 1, 2, 4 and $(b,--domains). With \
          $(b,--races), a $(b,races) suite shadow-records every accumulator write of a \
          compact kernel run and verifies the item-owned-writes discipline. With \
          $(b,--dynamic), a $(b,dynamic) suite replays a mutation schedule and proves the \
          dynamic-graph laws. With $(b,--elastic) or $(b,--hetero), an $(b,elastic) suite \
          replays the run on a static homogeneous cluster and proves scale events perturbed \
          only time and locality. Exits non-zero on any violation.")
    Term.(
      const action $ algo_arg $ graph_pos1 $ config_arg $ strategy $ engine_arg $ domains_arg
      $ races_arg $ dynamic_arg $ mutation_seed_arg $ what_if_term $ elastic_check_arg
      $ hetero_arg)

(* --- mutate --- *)

let mutate_cmd =
  let heuristic_arg =
    let parse s =
      match Cutfit.Streaming.of_string s with
      | Some h -> Ok h
      | None -> Error (`Msg (Printf.sprintf "unknown streaming heuristic %S" s))
    in
    let print ppf h = Fmt.string ppf (Cutfit.Streaming.to_string h) in
    Arg.(
      value
      & opt (conv (parse, print)) Cutfit.Streaming.Greedy
      & info [ "H"; "heuristic" ] ~docv:"H"
          ~doc:
            "Streaming heuristic maintaining the live cut: $(b,dbh), $(b,greedy), \
             $(b,hdrf)[:L] or $(b,hybrid)[:T].")
  in
  let spec_arg =
    let doc =
      "Mutation spec: comma-separated $(b,ins@B)[:rN] and $(b,del@B)[:rN] items, where B \
       is a batch number or window $(b,B-C) and N the edge count (default 32)."
    in
    Arg.(value & opt string "ins@1-4:r64,del@1-4:r16" & info [ "mutations" ] ~docv:"SPEC" ~doc)
  in
  let batches_arg =
    Arg.(
      value & opt (some int) None
      & info [ "batches" ] ~docv:"B"
          ~doc:"Batches to apply (default: the spec's own horizon).")
  in
  let check_arg =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Also run the dynamic sanitizer suite over the same schedule (delta-identity, cut \
             laws, refresh-rebuild value equivalence); exits non-zero on any violation.")
  in
  let action graph n config spec heuristic batches mutation_seed check =
    (match batches with
    | Some b when b < 1 -> usage_fail "batches must be >= 1 (got %d)" b
    | _ -> ());
    let cfg =
      match mutations_of_flags ~spec:(Some spec) ~seed:mutation_seed with
      | Some c -> c
      | None -> assert false
    in
    let g = load_graph graph in
    let steps = Cutfit.Repartition.run ~cluster:config ?batches ~heuristic ~num_partitions:n cfg g in
    let fsig = Cutfit_experiments.Report.fsig in
    let rows =
      List.map
        (fun (s : Cutfit.Repartition.step) ->
          let d = s.Cutfit.Repartition.decision in
          [
            string_of_int d.Cutfit.Repartition.batch;
            Printf.sprintf "+%d/-%d" d.Cutfit.Repartition.inserts d.Cutfit.Repartition.deletes;
            string_of_int d.Cutfit.Repartition.edges_after;
            fsig d.Cutfit.Repartition.refresh_s;
            fsig d.Cutfit.Repartition.rebuild_s;
            Cutfit.Repartition.choice_name d.Cutfit.Repartition.choice;
            string_of_int d.Cutfit.Repartition.moved_replicas;
            Printf.sprintf "%.3f" s.Cutfit.Repartition.metrics.Cutfit.Metrics.replication_factor;
            Printf.sprintf "%.3f" s.Cutfit.Repartition.metrics.Cutfit.Metrics.balance;
          ])
        steps
    in
    Fmt.pr "mutations %s on %s: %s cut, %d partition(s)@." (Cutfit.Mutation.describe cfg) graph
      (Cutfit.Streaming.to_string heuristic) n;
    Fmt.pr "%s@."
      (Cutfit_experiments.Report.table
         ~header:
           [ "batch"; "delta"; "edges"; "refresh"; "rebuild"; "choice"; "moved"; "RF"; "balance" ]
         ~rows);
    let refreshes =
      List.length
        (List.filter
           (fun (s : Cutfit.Repartition.step) ->
             s.Cutfit.Repartition.decision.Cutfit.Repartition.choice = Cutfit.Repartition.Refresh)
           steps)
    in
    Fmt.pr "%d batch(es): %d refresh / %d rebuild@." (List.length steps) refreshes
      (List.length steps - refreshes);
    if not check then exit_ok
    else begin
      match
        Cutfit.Dyn_check.validate ~cluster:config ?batches ~heuristic ~num_partitions:n cfg g
      with
      | [] ->
          Fmt.pr "dynamic check: ok@.";
          exit_ok
      | vs ->
          Fmt.epr "cutfit: dynamic sanitizer violations:@.%a@." Cutfit.Check.Violation.pp_list vs;
          exit_failure
    end
  in
  Cmd.v
    (Cmd.info "mutate"
       ~doc:
         "Stream a seeded edge mutation schedule over a graph: apply each insert/delete batch, \
          repair the live streaming cut incrementally, and print the priced refresh-vs-rebuild \
          decision per batch.")
    Term.(
      const action $ graph_arg $ partitions_arg $ config_arg $ spec_arg $ heuristic_arg
      $ batches_arg $ mutation_seed_arg $ check_arg)

(* --- chaos --- *)

let chaos_cmd =
  let module C = Cutfit_chaos in
  let seed_arg =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"SEED"
          ~doc:
            "Campaign seed. Scenario $(i,k) of a campaign is a pure function of (seed, k), so \
             the same seed and count replay bit-identically — the summary digest proves it.")
  in
  let count_arg =
    Arg.(value & opt int 25 & info [ "count" ] ~docv:"N" ~doc:"Scenarios to run.")
  in
  let budget_arg =
    Arg.(
      value & opt float 30.0
      & info [ "budget-s" ] ~docv:"S"
          ~doc:
            "Wall-clock budget per scenario. A scenario that outgrows it is killed and reported \
             $(b,hung); the campaign continues, and hung scenarios do not fail it.")
  in
  let no_shrink_arg =
    Arg.(
      value & flag
      & info [ "no-shrink" ]
          ~doc:"Report failing scenarios as found, without minimizing them first.")
  in
  let repro_arg =
    let doc =
      "Run one scenario from its compact spec instead of a campaign ($(b,KEY=VALUE) pairs \
       joined by ';' — see docs/CHAOS.md for the grammar, or paste the $(b,repro) line of a \
       campaign report). Exit 0 when it passes, 1 when it fails or hangs."
    in
    Arg.(value & opt (some string) None & info [ "repro" ] ~docv:"SPEC" ~doc)
  in
  let shrink_flag_arg =
    Arg.(
      value & flag
      & info [ "shrink" ]
          ~doc:"With $(b,--repro): if the scenario fails, also minimize it and print the shrunk \
                spec.")
  in
  let report_arg =
    Arg.(
      value & opt (some string) None
      & info [ "report" ] ~docv:"FILE"
          ~doc:"Write the campaign report as JSON (the CHAOS_report.json shape).")
  in
  let artifact_arg =
    Arg.(
      value & opt (some string) None
      & info [ "artifact" ] ~docv:"FILE"
          ~doc:"Write a standalone JSON repro artifact for the first failure (campaign mode) or \
                the failed scenario ($(b,--repro) mode).")
  in
  let write_json path json =
    Out_channel.with_open_text path (fun oc ->
        Out_channel.output_string oc (Cutfit.Json.to_string json);
        Out_channel.output_char oc '\n')
  in
  let action seed count budget no_shrink repro shrink_after report_out artifact_out =
    if not (Float.is_finite budget && budget > 0.0) then
      usage_fail "budget-s must be finite and positive (got %g)" budget;
    match repro with
    | Some spec -> (
        let sc = C.Scenario.of_spec spec in
        Fmt.pr "repro: %s@." (C.Scenario.to_spec sc);
        let outcome = C.Runner.run ~budget_s:budget sc in
        match outcome with
        | C.Runner.Passed ->
            Fmt.pr "passed@.";
            exit_ok
        | C.Runner.Hung ->
            Fmt.epr "cutfit: scenario hung (budget %gs)@." budget;
            exit_failure
        | C.Runner.Violated _ | C.Runner.Crashed _ ->
            (match outcome with
            | C.Runner.Violated vs ->
                Fmt.epr "cutfit: chaos violations:@.%a@." Cutfit.Check.Violation.pp_list vs
            | C.Runner.Crashed msg -> Fmt.epr "cutfit: scenario crashed: %s@." msg
            | _ -> ());
            let shrunk =
              if not shrink_after then None
              else
                match C.Shrink.classify outcome with
                | None -> None
                | Some cls ->
                    Fmt.pr "shrinking (failure class %s)...@." (C.Shrink.class_name cls);
                    let s =
                      C.Shrink.shrink ~oracle:(C.Shrink.oracle_for ~budget_s:budget cls) sc
                    in
                    Fmt.pr "shrunk: %s@." (C.Scenario.to_spec s);
                    Some s
            in
            let entry =
              { C.Campaign.index = 0; scenario = sc; outcome; shrunk; duration_s = 0.0 }
            in
            Fmt.pr "%s@." (C.Campaign.repro_command entry);
            (match artifact_out with
            | Some path ->
                write_json path (C.Campaign.artifact_json entry);
                Fmt.pr "wrote repro artifact to %s@." path
            | None -> ());
            exit_failure)
    | None ->
        if count < 0 then usage_fail "count must be >= 0 (got %d)" count;
        let progress (e : C.Campaign.entry) =
          let spec = C.Scenario.to_spec e.C.Campaign.scenario in
          match e.C.Campaign.outcome with
          | C.Runner.Passed ->
              Fmt.pr "[%3d] passed   %5.1fs  %s@." e.C.Campaign.index e.C.Campaign.duration_s spec
          | C.Runner.Hung ->
              Fmt.pr "[%3d] hung     %5.1fs  %s@." e.C.Campaign.index e.C.Campaign.duration_s spec
          | C.Runner.Violated vs ->
              Fmt.pr "[%3d] VIOLATED %5.1fs  %s@." e.C.Campaign.index e.C.Campaign.duration_s spec;
              Fmt.pr "      %d violation(s), first: %s@." (List.length vs)
                (match vs with
                | v :: _ -> v.Cutfit.Check.Violation.suite ^ "/" ^ v.Cutfit.Check.Violation.rule
                | [] -> "-");
              Fmt.pr "      %s@." (C.Campaign.repro_command e)
          | C.Runner.Crashed msg ->
              Fmt.pr "[%3d] CRASHED  %5.1fs  %s@." e.C.Campaign.index e.C.Campaign.duration_s spec;
              Fmt.pr "      %s@." msg;
              Fmt.pr "      %s@." (C.Campaign.repro_command e)
        in
        let campaign =
          C.Campaign.run ~budget_s:budget ~shrink:(not no_shrink) ~progress ~seed ~count ()
        in
        let failures = C.Campaign.failures campaign in
        let hung = C.Campaign.hung campaign in
        Fmt.pr "campaign seed=%d count=%d: %d passed, %d failed, %d hung; digest %s@." seed count
          (count - List.length failures - List.length hung)
          (List.length failures) (List.length hung) (C.Campaign.digest campaign);
        (match report_out with
        | Some path ->
            write_json path (C.Campaign.report_json campaign);
            Fmt.pr "wrote campaign report to %s@." path
        | None -> ());
        (match (artifact_out, failures) with
        | Some path, e :: _ ->
            write_json path (C.Campaign.artifact_json e);
            Fmt.pr "wrote repro artifact to %s@." path
        | Some _, [] -> ()
        | None, _ -> ());
        if failures = [] then exit_ok else exit_failure
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Seeded cross-subsystem chaos campaigns: random scenarios over the combined fault x \
          scale x mutation x overload x tenancy space, each run fork-isolated through the real \
          engines with the full sanitizer battery, failures delta-debugged to a minimal \
          copy-pasteable repro.")
    Term.(
      const action $ seed_arg $ count_arg $ budget_arg $ no_shrink_arg $ repro_arg
      $ shrink_flag_arg $ report_arg $ artifact_arg)

let () =
  let doc = "Tailor graph partitioning to the computation (Cut to Fit)." in
  let info = Cmd.info "cutfit" ~version:"1.0.0" ~doc in
  (* Exit-code contract: actions return 0 (success) or 1 (violation /
     failed job); cmdliner usage problems and malformed specs map to 2;
     any other escaped exception maps to 1 rather than cmdliner's 125. *)
  exit
    (match
       Cmd.eval_value ~catch:false
         (Cmd.group info
            [ datasets_cmd; generate_cmd; characterize_cmd; partition_cmd; advise_cmd; run_cmd;
              compare_cmd; workload_cmd; mutate_cmd; check_cmd; chaos_cmd ])
     with
    | Ok (`Ok code) -> code
    | Ok (`Help | `Version) -> exit_ok
    | Error (`Parse | `Term) -> exit_usage
    | Error `Exn -> exit_failure
    | exception Cutfit.Spec_error.Error e -> usage_fail "%s" (Cutfit.Spec_error.message e)
    | exception e ->
        Fmt.epr "cutfit: internal error, uncaught exception:@.%s@." (Printexc.to_string e);
        exit_failure)
