(* The workload golden corpus: the multi-job engine ([Engine.run]) over
   a fixed set of job streams, pinned by two digests per case — the
   canonical report ([Workload_check.digest]) and the telemetry event
   stream captured by a ring sink ([Determinism.events_digest]). A
   refactor of the engine must leave every row of [Workload_table]
   unchanged; a change that is meant to move one regenerates the table
   with [workload_grid.exe --print] and says why in CHANGES.md.

   Two kinds of case: the workload phases of the first [gen_count]
   chaos scenarios of campaign seed 1, run with the same [Engine.run]
   call the chaos runner makes, and hand-written cases for the inputs
   the scenario generator never draws (heuristic and measured
   selection, cost-aware eviction under a tight budget, per-tenant
   deadlines, iteration caps, ...). *)

module Cluster = Cutfit_bsp.Cluster
module Faults = Cutfit_bsp.Faults
module Speculation = Cutfit_bsp.Speculation
module Streaming = Cutfit_partition.Streaming
module Mutation = Cutfit_dynamic.Mutation
module Determinism = Cutfit_check.Determinism
module Sink = Cutfit_obs.Sink
module Telemetry = Cutfit_obs.Telemetry
module Engine = Cutfit_workload.Engine
module Job = Cutfit_workload.Job
module Cache = Cutfit_workload.Cache
module Workload_check = Cutfit_workload.Workload_check
module Scenario = Cutfit_chaos.Scenario
module Gen = Cutfit_chaos.Gen

type case = { key : string; run : ?telemetry:Telemetry.t -> unit -> Engine.report }
type digests = { report : string; events : string }

let gen_seed = 1
let gen_count = 100

(* The workload phase of a chaos scenario, argument for argument the
   call [Cutfit_chaos.Runner] makes. *)
let of_scenario index =
  let sc = Gen.scenario ~seed:gen_seed ~index in
  let cluster = Cluster.find sc.Scenario.cluster in
  let speculation =
    Option.map
      (fun t -> Speculation.config ~threshold:t ~seed:sc.Scenario.seed ())
      sc.Scenario.speculate
  in
  let mix = Option.get (Job.find_mix sc.Scenario.mix) in
  let o = sc.Scenario.overload in
  let t = sc.Scenario.tenancy in
  let tenants = match t.Scenario.tenants with [] -> None | ts -> Some ts in
  let seed64 = Int64.of_int sc.Scenario.seed in
  let run ?telemetry () =
    Engine.run ~cluster ~slots:sc.Scenario.slots ~policy:sc.Scenario.policy
      ?checkpoint_every:sc.Scenario.checkpoint_every ?faults:sc.Scenario.faults ?speculation
      ?queue_bound:o.Scenario.queue_bound ~shed_policy:o.Scenario.shed
      ?deadline:o.Scenario.deadline ?breaker_k:o.Scenario.breaker_k
      ~breaker_cooldown_s:o.Scenario.breaker_cooldown_s ?backpressure:o.Scenario.backpressure
      ?telemetry ?mutations:sc.Scenario.mutations ~mutate_every:sc.Scenario.mutate_every
      ~mutation_mode:sc.Scenario.mutation_mode ?scale_events:sc.Scenario.elastic
      ~tenant_weights:t.Scenario.tenants ?tenant_quota:t.Scenario.quota
      ~fairness:t.Scenario.fairness ~seed:seed64
      (Job.generate ~seed:seed64 ~jobs:sc.Scenario.jobs ?tenants mix)
  in
  { key = Printf.sprintf "gen/%d/%03d" gen_seed index; run }

let stream ?tenants ~seed ~jobs mix =
  Job.generate ~seed ~jobs ?tenants (Option.get (Job.find_mix mix))

let hand key run = { key = "hand/" ^ key; run }

(* A fault-free reuse-heavy stream in which every fourth job is a
   triangle count, so PR, CC and TR jobs each repeat on cached
   partitionings of the same two graphs (SSSP keeps its per-job
   landmarks). *)
let reuse_stream ~seed ~jobs =
  List.map
    (fun (j : Job.t) ->
      if j.Job.id mod 4 = 3 then { j with Job.algorithm = Cutfit.Advisor.Triangle_count } else j)
    (stream ~seed ~jobs "reuse-heavy")

(* Cost-aware eviction under a budget that holds a few of the churn
   mix's partitionings but not its largest ones: the run both evicts and
   rejects (checked by [run_case]). *)
let tight_budget_bytes = 2.5e9

let hand_cases =
  [
    hand "heuristic" (fun ?telemetry () ->
        Engine.run ?telemetry ~selection:Engine.Heuristic ~seed:3L
          (stream ~seed:3L ~jobs:10 "uniform"));
    hand "measured-sjf" (fun ?telemetry () ->
        Engine.run ?telemetry ~selection:Engine.Measured ~policy:Engine.Sjf ~slots:3 ~seed:4L
          (stream ~seed:4L ~jobs:10 "churn"));
    hand "cost-eviction" (fun ?telemetry () ->
        Engine.run ?telemetry ~eviction:Cache.Cost_aware ~budget_bytes:tight_budget_bytes ~seed:5L
          (stream ~seed:5L ~jobs:12 "churn"));
    hand "tenant-deadlines" (fun ?telemetry () ->
        let tenants = [ ("acme", 2.0); ("beta", 1.0) ] in
        Engine.run ?telemetry ~deadline:(Engine.Factor 3.0)
          ~tenant_deadlines:[ ("acme", Engine.Absolute 120.0); ("beta", Engine.Factor 2.0) ]
          ~tenant_weights:tenants ~fairness:true ~seed:6L
          (stream ~tenants ~seed:6L ~jobs:10 "uniform"));
    hand "iterations" (fun ?telemetry () ->
        Engine.run ?telemetry ~iterations:3 ~selection:(Engine.Cache_aware 1.0) ~seed:7L
          (stream ~seed:7L ~jobs:10 "reuse-heavy"));
    hand "no-cache-retries" (fun ?telemetry () ->
        Engine.run ?telemetry ~budget_bytes:0.0 ~max_retries:0 ~checkpoint_every:2
          ~faults:(Faults.config ~seed:8 ~max_failures:0 "crash@2,rand@0.2")
          ~seed:8L (stream ~seed:8L ~jobs:8 "uniform"));
    hand "retries-deadline" (fun ?telemetry () ->
        Engine.run ?telemetry ~max_retries:3 ~deadline:(Engine.Absolute 90.0)
          ~faults:(Faults.config ~seed:10 ~max_failures:0 "rand@0.3")
          ~seed:10L (stream ~seed:10L ~jobs:8 "reuse-heavy"));
    hand "mutation-heuristic" (fun ?telemetry () ->
        Engine.run ?telemetry ~mutation_heuristic:Streaming.Dbh
          ~mutations:(Mutation.config ~seed:9 "ins@1-3:r64,del@2:r16")
          ~mutate_every:2 ~mutation_mode:Engine.Force_refresh ~seed:9L
          (stream ~seed:9L ~jobs:10 "reuse-heavy"));
    hand "reuse-heavy" (fun ?telemetry () ->
        Engine.run ?telemetry
          ~mutations:(Mutation.config ~seed:11 "ins@1:r64,del@1:r16")
          ~mutate_every:12 ~mutation_mode:Engine.Force_refresh ~seed:11L
          (reuse_stream ~seed:11L ~jobs:20));
  ]

let cases = hand_cases @ List.init gen_count of_scenario

(* Tier-1 slice: every hand case and the first four chaos phases. *)
let fast_slice = List.filteri (fun i _ -> i < List.length hand_cases + 4) cases

let ring_capacity = 1 lsl 16

let run_case c =
  let sink, read = Sink.ring ~capacity:ring_capacity () in
  let telemetry = Telemetry.create ~sinks:[ sink ] () in
  let report = c.run ~telemetry () in
  if Telemetry.events_emitted telemetry > ring_capacity then
    failwith (c.key ^ ": event stream overflowed the ring sink");
  Telemetry.close telemetry;
  if
    String.equal c.key "hand/cost-eviction"
    && (report.Engine.cache.Cache.evictions = 0 || report.Engine.cache.Cache.rejections = 0)
  then failwith (c.key ^ ": the budget no longer forces both evictions and rejections");
  { report = Workload_check.digest report; events = Determinism.events_digest (read ()) }

let table =
  let t = Hashtbl.create 128 in
  List.iter
    (fun (k, report, events) -> Hashtbl.replace t k { report; events })
    Workload_table.digests;
  t

(* [None] when the run matches its committed digests, else a one-line
   description of the first mismatch. *)
let check c =
  let got = run_case c in
  match Hashtbl.find_opt table c.key with
  | None -> Some (c.key ^ ": no committed digest")
  | Some want ->
      let differ what a b =
        if String.equal a b then None
        else Some (Printf.sprintf "%s: %s digest %s, committed %s" c.key what a b)
      in
      List.find_map Fun.id
        [ differ "report" got.report want.report; differ "events" got.events want.events ]

(* Telemetry invariance: the chaos runner compares a ring-sink run with
   one untraced replay, so a report must digest the same whether or not
   anything observes the run. [None] when an untraced run matches the
   committed report digest, which [check] holds the ring-sink run to. *)
let check_untraced c =
  let got = Workload_check.digest (c.run ()) in
  match Hashtbl.find_opt table c.key with
  | None -> Some (c.key ^ ": no committed digest")
  | Some want ->
      if String.equal got want.report then None
      else
        Some
          (Printf.sprintf "%s: untraced report digest %s, ring-sink digest %s" c.key got
             want.report)

let table_row c d = Printf.sprintf "    (%S, %S, %S);" c.key d.report d.events
