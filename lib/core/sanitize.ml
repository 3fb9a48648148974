module Partitioner = Cutfit_partition.Partitioner
module Cluster = Cutfit_bsp.Cluster
module Cost_model = Cutfit_bsp.Cost_model
module Pgraph = Cutfit_bsp.Pgraph
module Csr = Cutfit_bsp.Csr
module Trace = Cutfit_bsp.Trace
module Check = Cutfit_check
module Obs = Cutfit_obs

type report = {
  algorithm : Advisor.algorithm;
  partitioner : Partitioner.t;
  suites : (string * int) list;
  violations : Check.Violation.t list;
  trace_digest : string;
  events_digest : string;
}

let ok r = r.violations = []

(* Wire payload per remote message: payload bytes plus the framing
   overhead. *)
let payload ~scale (a : _ Pipeline.algo) =
  let overhead = Cost_model.default.Cost_model.msg_wire_overhead_bytes in
  Option.map
    (fun b ->
      let bytes = float_of_int (b + overhead) in
      { Check.Trace_check.msg_wire_bytes = bytes; attr_wire_bytes = bytes; scale })
    a.Pipeline.payload_bytes

let check_run ?(cluster = Cluster.config_i) ?partitioner ?(scale = 1.0) ?checkpoint_every ?faults
    ?speculation ?elastic ?hetero ?engine_domains ?race_domains ?dynamic ~algorithm g =
  let num_partitions = cluster.Cluster.num_partitions in
  let partitioner =
    match partitioner with
    | Some p -> p
    | None -> Partitioner.Hash (Advisor.advise algorithm ~scale ~num_partitions g)
  in
  let w = { Cutfit_bsp.Pricer.checkpoint_every; faults; speculation; elastic; hetero } in
  let (Pipeline.Algo a) =
    Pipeline.algo ~landmarks:(lazy (Pipeline.default_landmarks g)) algorithm
  in
  (* [exec] on the pipeline under [what_if], with its whole event
     stream kept (however long, so the telemetry suite's counts see
     every event). *)
  let observe what_if exec =
    let sink, contents = Obs.Sink.collect () in
    let telemetry = Obs.Telemetry.create ~sinks:[ sink ] () in
    let p = Pipeline.prepare ~cluster ~partitioner ~scale ~what_if ~telemetry ~algorithm g in
    let r = exec p in
    Obs.Telemetry.close telemetry;
    (p, r, contents ())
  in
  (* One sanitized run. Besides the trace and its events, every run
     yields a canonical digest of its final vertex values — what the
     fault suite compares bit-for-bit across baseline and faulty
     executions. *)
  let run_once what_if =
    let p, (values, trace), events = observe what_if a.Pipeline.run in
    (p, trace, a.Pipeline.kernel.Check.Kernel_check.digest values, events)
  in
  let p, trace, attrs_digest, events = run_once w in
  let assignment = Pgraph.assignment p.Pipeline.pg in
  let pgraph_v = Check.Pgraph_check.validate p.Pipeline.pg in
  let metrics_v =
    Check.Metrics_check.validate p.Pipeline.graph ~num_partitions assignment (Pipeline.metrics p)
  in
  let trace_v = Check.Trace_check.validate ?payload:(payload ~scale a) trace in
  let telemetry_v = Check.Trace_check.reconcile trace events in
  let trace_digest = Check.Determinism.trace_digest trace in
  let events_digest = Check.Determinism.events_digest events in
  let label =
    Printf.sprintf "%s/%s" (Advisor.algorithm_name algorithm) (Partitioner.name partitioner)
  in
  (* The sanitized run above is the first of the two complete
     executions the determinism suite compares; one replay of the same
     configuration through the table's [price] is the second, so the
     suite also holds [price] to [run]'s trace and events. *)
  let digest_of_run () =
    let _, trace, events = observe w a.Pipeline.price in
    Check.Determinism.trace_digest trace ^ "/" ^ Check.Determinism.events_digest events
  in
  let determinism_v =
    Check.Determinism.replay ~label ~first:(trace_digest ^ "/" ^ events_digest) digest_of_run
  in
  (* With a fault schedule (or speculation) the sanitized run above is
     the perturbed one; a sixth suite replays the same pipeline
     fault-free and speculation-free and proves the equivalence
     invariant: bit-identical vertex values, same communication
     structure, never cheaper in compute time. The baseline keeps
     [checkpoint_every]: checkpointing is run configuration, not a
     fault — it truncates the driver's lineage metadata, so a
     checkpointed run can outlive the driver-memory limit that aborts
     an un-checkpointed one, and comparing across that divide proves
     nothing. *)
  let faults_v =
    match (faults, speculation) with
    | None, None -> None
    | _ ->
        let _, baseline, baseline_attrs, _ =
          run_once { w with faults = None; speculation = None }
        in
        Some
          (Check.Fault_check.equivalence ~label ~baseline ~faulty:trace
             ~baseline_attrs ~faulty_attrs:attrs_digest ())
  in
  (* Dual of the faults suite for membership churn: replay the pipeline
     statically and homogeneously (same checkpoint cadence and fault
     schedule) and prove scale events perturbed only time and locality —
     bit-identical vertex values, unchanged placement-independent
     structure, and an unbroken membership chain through the reshuffle
     records. *)
  let elastic_v =
    match (elastic, hetero) with
    | None, None -> None
    | _ ->
        let _, baseline, baseline_attrs, _ = run_once { w with elastic = None; hetero = None } in
        Some
          (Check.Elastic_check.equivalence ~label ~executors:cluster.Cluster.executors
             ~num_partitions ~baseline ~elastic:trace ~baseline_attrs
             ~elastic_attrs:attrs_digest ())
  in
  (* The engines and races suites run the compact kernels one after
     another on one Csr image of the sanitized run's partitioned graph,
     and share the digest of one unshadowed run at one domain. *)
  let csr = lazy (Csr.build p.Pipeline.pg) in
  let plain = lazy (Check.Kernel_check.plain a.Pipeline.kernel (Lazy.force csr)) in
  (* The engines suite insists on the boxed engine's vertex values, bit
     for bit, at every requested domain count. Its oracle is the
     sanitized run itself whenever that run completed: kernel values do
     not depend on the cluster, and faults, speculation, scale events
     and heterogeneity leave them alone too — a sanitized run with any
     of those has its values compared with an unperturbed baseline by
     the faults or elastic suite, so csr = sanitized = baseline chains
     the two checks. An out-of-memory or aborted run carries partial
     values; only then does one boxed run on an unconstrained cluster
     stand in. *)
  let engines_v =
    Option.map
      (fun domains_counts ->
        let oracle =
          if Trace.completed trace then attrs_digest
          else Pipeline.oracle a p
        in
        let c = Lazy.force csr in
        Check.Kernel_check.engines a.Pipeline.kernel ~oracle ~plain ~domains_counts c)
      engine_domains
  in
  (* The races suite runs the compact kernel with the shadow
     write-ownership recorder at every requested domain count, then
     self-tests the detector against two seeded corruptions. *)
  let races_v =
    Option.map
      (fun domains_counts ->
        let c = Lazy.force csr in
        Check.Kernel_check.races a.Pipeline.kernel ~plain ~domains_counts c
        @ Check.Kernel_check.self_check c)
      race_domains
  in
  (* The dynamic suite replays the mutation schedule from a fresh
     streaming cut of the same graph, proving the delta-identity, the
     cut laws on every refreshed assignment, refresh-rebuild value
     equivalence and the delta-local moved-replica count. The heuristic
     follows the partitioner when it is a streaming one; the hash
     strategies have no live state to repair, so they fall back to
     Greedy. *)
  let dynamic_v =
    match dynamic with
    | None -> None
    | Some cfg ->
        let heuristic =
          match partitioner with
          | Partitioner.Stream s | Partitioner.Incremental s -> s
          | Partitioner.Hash _ | Partitioner.Custom _ -> Cutfit_partition.Streaming.Greedy
        in
        Some
          (Cutfit_dynamic.Dyn_check.validate ~cluster ~heuristic ~num_partitions cfg g)
  in
  let suites =
    [
      ("pgraph", pgraph_v);
      ("metrics", metrics_v);
      ("trace", trace_v);
      ("telemetry", telemetry_v);
      ("determinism", determinism_v);
    ]
    @ List.filter_map
        (fun (name, vs) -> Option.map (fun vs -> (name, vs)) vs)
        [
          ("faults", faults_v);
          ("elastic", elastic_v);
          ("engines", engines_v);
          ("races", races_v);
          ("dynamic", dynamic_v);
        ]
  in
  {
    algorithm;
    partitioner;
    suites = List.map (fun (name, vs) -> (name, List.length vs)) suites;
    violations = List.concat_map snd suites;
    trace_digest;
    events_digest;
  }

let pp_report ppf r =
  Format.fprintf ppf "sanitizer: %s with %s@\n"
    (Advisor.algorithm_name r.algorithm)
    (Partitioner.name r.partitioner);
  List.iter
    (fun (suite, n) ->
      Format.fprintf ppf "  %-12s %s@\n" suite
        (if n = 0 then "ok" else Printf.sprintf "%d violation(s)" n))
    r.suites;
  Format.fprintf ppf "  trace digest  %s@\n  events digest %s" r.trace_digest r.events_digest;
  if r.violations <> [] then Format.fprintf ppf "@\n%a" Check.Violation.pp_list r.violations
