module Graph = Cutfit_graph.Graph
module Partitioner = Cutfit_partition.Partitioner
module Cluster = Cutfit_bsp.Cluster
module Cost_model = Cutfit_bsp.Cost_model
module Pgraph = Cutfit_bsp.Pgraph
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

(* Wire payload per remote message, as the Pregel engine computes it:
   payload bytes plus the framing overhead. Triangle counting builds its
   stages outside the message engines, so no payload law applies. *)
let payload ~scale ~landmarks algorithm =
  let overhead = Cost_model.default.Cost_model.msg_wire_overhead_bytes in
  let of_bytes b =
    Some
      {
        Check.Trace_check.msg_wire_bytes = float_of_int (b + overhead);
        attr_wire_bytes = float_of_int (b + overhead);
        scale;
      }
  in
  match algorithm with
  | Advisor.Pagerank | Advisor.Connected_components -> of_bytes 8
  | Advisor.Shortest_paths -> of_bytes (96 + (64 * Array.length landmarks))
  | Advisor.Triangle_count -> None

(* One sanitized run. Besides the trace and the captured event stream,
   every run yields a canonical digest of its final vertex values —
   what the fault suite compares bit-for-bit across baseline and faulty
   executions. *)
let run_once ?checkpoint_every ?faults ?speculation ?elastic ?hetero ~cluster ~partitioner
    ~scale ~landmarks ~algorithm g =
  let sink, contents = Obs.Sink.ring ~capacity:65536 () in
  let telemetry = Obs.Telemetry.create ~sinks:[ sink ] () in
  let p =
    Pipeline.prepare ~cluster ~partitioner ~scale ?checkpoint_every ?faults ?speculation
      ?elastic ?hetero ~telemetry ~algorithm g
  in
  let trace, attrs_digest =
    match algorithm with
    | Advisor.Pagerank ->
        let ranks, t = Pipeline.pagerank p in
        (t, Check.Fault_check.float_attrs_digest ranks)
    | Advisor.Connected_components ->
        let labels, t = Pipeline.connected_components p in
        (t, Check.Fault_check.int_attrs_digest labels)
    | Advisor.Triangle_count ->
        let per_vertex, _, t = Pipeline.triangles p in
        (t, Check.Fault_check.int_attrs_digest per_vertex)
    | Advisor.Shortest_paths ->
        let distances, t = Pipeline.shortest_paths ~landmarks p in
        (t, Check.Fault_check.int_attrs_digest (Array.concat (Array.to_list distances)))
  in
  Obs.Telemetry.close telemetry;
  (p, trace, attrs_digest, contents ())

let check_run ?(cluster = Cluster.config_i) ?partitioner ?(scale = 1.0) ?checkpoint_every ?faults
    ?speculation ?elastic ?hetero ?engine_domains ?race_domains ?dynamic ~algorithm g =
  let num_partitions = cluster.Cluster.num_partitions in
  let partitioner =
    match partitioner with
    | Some p -> p
    | None -> Partitioner.Hash (Advisor.advise algorithm ~scale ~num_partitions g)
  in
  let landmarks =
    match algorithm with
    | Advisor.Shortest_paths -> Cutfit_algo.Sssp.pick_landmarks ~seed:11L ~count:3 g
    | _ -> [||]
  in
  let p, trace, attrs_digest, events =
    run_once ?checkpoint_every ?faults ?speculation ?elastic ?hetero ~cluster ~partitioner
      ~scale ~landmarks ~algorithm g
  in
  let assignment = Pgraph.assignment p.Pipeline.pg in
  let pgraph_v = Check.Pgraph_check.validate p.Pipeline.pg in
  let metrics_v =
    Check.Metrics_check.validate p.Pipeline.graph ~num_partitions assignment (Pipeline.metrics p)
  in
  (* On an elastic (or heterogeneous) run the conservation suite is run
     through its {!Elastic_check} alias — same laws, but the suite name
     in a violation points the reader at the membership chain. *)
  let trace_v =
    let payload = payload ~scale ~landmarks algorithm in
    match (elastic, hetero) with
    | None, None -> Check.Trace_check.validate ?payload trace
    | _ -> Check.Elastic_check.validate_elastic ?payload trace
  in
  let telemetry_v = Check.Trace_check.reconcile trace events in
  let trace_digest = Check.Determinism.trace_digest trace in
  let events_digest = Check.Determinism.events_digest events in
  let label =
    Printf.sprintf "%s/%s" (Advisor.algorithm_name algorithm) (Partitioner.name partitioner)
  in
  (* The sanitized run above is the first of the two complete
     executions the determinism suite compares; one replay through the
     same [run_once] configuration (ring sink included) is the second. *)
  let digest_of_run () =
    let _, trace, _, events =
      run_once ?checkpoint_every ?faults ?speculation ?elastic ?hetero ~cluster ~partitioner
        ~scale ~landmarks ~algorithm g
    in
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
          run_once ?checkpoint_every ?elastic ?hetero ~cluster ~partitioner ~scale ~landmarks
            ~algorithm g
        in
        Some
          (Check.Fault_check.equivalence ~label ~baseline ~faulty:trace
             ~baseline_attrs ~faulty_attrs:attrs_digest ())
  in
  (* Dual of the faults suite for membership churn: replay the pipeline
     statically and homogeneously (same fault schedule, if any) and
     prove scale events perturbed only time and locality — bit-identical
     vertex values, unchanged placement-independent structure, and an
     unbroken membership chain through the reshuffle records. *)
  let elastic_v =
    match (elastic, hetero) with
    | None, None -> None
    | _ ->
        let _, baseline, baseline_attrs, _ =
          run_once ?checkpoint_every ?faults ?speculation ~cluster ~partitioner ~scale ~landmarks
            ~algorithm g
        in
        Some
          (Check.Elastic_check.equivalence ~label ~executors:cluster.Cluster.executors
             ~num_partitions ~baseline ~elastic:trace ~baseline_attrs
             ~elastic_attrs:attrs_digest ())
  in
  (* The engines suite runs the boxed oracle and the compact Csr kernel
     over the same partitioned graph and insists on bit-identical vertex
     values at every requested domain count. *)
  let engines_v =
    match engine_domains with
    | None -> None
    | Some domains_counts ->
        let pg = p.Pipeline.pg in
        Some
          (match algorithm with
          | Advisor.Pagerank -> Check.Engine_check.pagerank ~domains_counts ~cluster pg
          | Advisor.Connected_components ->
              Check.Engine_check.connected_components ~domains_counts ~cluster pg
          | Advisor.Triangle_count -> Check.Engine_check.triangle_count ~domains_counts ~cluster pg
          | Advisor.Shortest_paths ->
              Check.Engine_check.shortest_paths ~domains_counts ~landmarks ~cluster pg)
  in
  (* The races suite runs the compact kernels with the shadow
     write-ownership recorder at every requested domain count, then
     self-tests the detector against two seeded corruptions. *)
  let races_v =
    match race_domains with
    | None -> None
    | Some domains_counts ->
        let pg = p.Pipeline.pg in
        let kernel_v =
          match algorithm with
          | Advisor.Pagerank -> Check.Race_check.pagerank ~domains_counts pg
          | Advisor.Connected_components -> Check.Race_check.connected_components ~domains_counts pg
          | Advisor.Triangle_count -> Check.Race_check.triangle_count ~domains_counts pg
          | Advisor.Shortest_paths -> Check.Race_check.shortest_paths ~domains_counts ~landmarks pg
        in
        Some (kernel_v @ Check.Race_check.self_check pg)
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
      ("pgraph", List.length pgraph_v);
      ("metrics", List.length metrics_v);
      ("trace", List.length trace_v);
      ("telemetry", List.length telemetry_v);
      ("determinism", List.length determinism_v);
    ]
    @ (match faults_v with None -> [] | Some v -> [ ("faults", List.length v) ])
    @ (match elastic_v with None -> [] | Some v -> [ ("elastic", List.length v) ])
    @ (match engines_v with None -> [] | Some v -> [ ("engines", List.length v) ])
    @ (match races_v with None -> [] | Some v -> [ ("races", List.length v) ])
    @ match dynamic_v with None -> [] | Some v -> [ ("dynamic", List.length v) ]
  in
  {
    algorithm;
    partitioner;
    suites;
    violations =
      pgraph_v @ metrics_v @ trace_v @ telemetry_v @ determinism_v
      @ Option.value ~default:[] faults_v
      @ Option.value ~default:[] elastic_v
      @ Option.value ~default:[] engines_v
      @ Option.value ~default:[] races_v
      @ Option.value ~default:[] dynamic_v;
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
