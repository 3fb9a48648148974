(* The golden-digest corpus: every boxed engine under every perturbation
   family, pinned by three digests per run — the trace
   ([Determinism.trace_digest]), the telemetry event stream captured by
   a ring sink ([Determinism.events_digest]) and the final vertex values
   ([Fault_check.*_attrs_digest]). A refactor of the engines or of their
   pricing must leave every digest in [Golden_table] unchanged; a change
   that is meant to move one regenerates the table with
   [golden_grid.exe --print] and says why in CHANGES.md. *)

module Bsp = Cutfit_bsp
module Cluster = Bsp.Cluster
module Pgraph = Bsp.Pgraph
module Pricer = Bsp.Pricer
module Faults = Bsp.Faults
module Elastic = Bsp.Elastic
module Speculation = Bsp.Speculation
module Partitioner = Cutfit_partition.Partitioner
module Datasets = Cutfit_gen.Datasets
module Algo = Cutfit_algo
module Obs = Cutfit_obs
module Determinism = Cutfit_check.Determinism
module Fault_check = Cutfit_check.Fault_check

type engine = Pr_pregel | Cc_pregel | Sssp_pregel | Pr_gas | Tr_boxed

type perturbation =
  | Plain
  | Rollback  (** crash + straggler + loss + net, checkpointed rollback *)
  | Lineage  (** the same schedule recovered by lineage rebuild *)
  | Abort  (** a crash past [max_failures 0] *)
  | Scale  (** leave/join/preempt over drawn heterogeneous hosts *)
  | Speculate  (** speculative re-execution under a straggler *)

type case = {
  dataset : string;
  partitioner : Partitioner.t;
  cluster : Cluster.t;
  engine : engine;
  perturbation : perturbation;
}

type digests = { trace : string; events : string; values : string }

let engine_name = function
  | Pr_pregel -> "pr-pregel"
  | Cc_pregel -> "cc-pregel"
  | Sssp_pregel -> "sssp-pregel"
  | Pr_gas -> "pr-gas"
  | Tr_boxed -> "tr-boxed"

let perturbation_name = function
  | Plain -> "none"
  | Rollback -> "rollback"
  | Lineage -> "lineage"
  | Abort -> "abort"
  | Scale -> "elastic"
  | Speculate -> "speculation"

let key c =
  String.concat "/"
    [
      c.dataset;
      Partitioner.name c.partitioner;
      c.cluster.Cluster.name;
      engine_name c.engine;
      perturbation_name c.perturbation;
    ]

let datasets = [ "roadnet_pa"; "youtube" ]
let clusters = Cluster.[ config_i; config_ii; config_iii; config_iv ]
let engines = [ Pr_pregel; Cc_pregel; Sssp_pregel; Pr_gas; Tr_boxed ]

(* Triangle counting takes no fault, speculation or elasticity knobs
   (it always executes statically), so it is pinned unperturbed only. *)
let perturbations_of = function
  | Tr_boxed -> [ Plain ]
  | Pr_pregel | Cc_pregel | Sssp_pregel | Pr_gas ->
      [ Plain; Rollback; Lineage; Abort; Scale; Speculate ]

let grid ~partitioners ~clusters =
  List.concat_map
    (fun dataset ->
      List.concat_map
        (fun partitioner ->
          List.concat_map
            (fun cluster ->
              List.concat_map
                (fun engine ->
                  List.map
                    (fun perturbation -> { dataset; partitioner; cluster; engine; perturbation })
                    (perturbations_of engine))
                engines)
            clusters)
        partitioners)
    datasets

let full_grid = grid ~partitioners:Partitioner.paper_six ~clusters

(* Tier-1 slice: one partitioner, the smallest and the fastest cluster. *)
let fast_slice =
  grid
    ~partitioners:[ Partitioner.Hash Cutfit_partition.Strategy.Two_d ]
    ~clusters:Cluster.[ config_i; config_iv ]

(* Partitioned graphs are shared across clusters with the same
   partition count. *)
let pgraphs = Hashtbl.create 16

let pgraph c =
  let num_partitions = c.cluster.Cluster.num_partitions in
  let k = (c.dataset, Partitioner.name c.partitioner, num_partitions) in
  match Hashtbl.find_opt pgraphs k with
  | Some pg -> pg
  | None ->
      let g = Datasets.generate (Datasets.find c.dataset) in
      let pg = Pgraph.build g ~num_partitions (Partitioner.assign c.partitioner ~num_partitions g) in
      Hashtbl.replace pgraphs k pg;
      pg

let fault_schedule = "crash@3,straggler@1-2:x3,loss@2:r2,net@4:x0.5"

let what_if c : Pricer.what_if =
  match c.perturbation with
  | Plain -> Pricer.static
  | Rollback ->
      {
        Pricer.static with
        checkpoint_every = Some 2;
        faults = Some (Faults.config ~seed:3 ~mode:Faults.Rollback fault_schedule);
      }
  | Lineage ->
      {
        Pricer.static with
        checkpoint_every = Some 2;
        faults = Some (Faults.config ~seed:3 ~mode:Faults.Lineage fault_schedule);
      }
  | Abort -> { Pricer.static with faults = Some (Faults.config ~max_failures:0 "crash@2") }
  | Scale ->
      {
        Pricer.static with
        elastic = Some (Elastic.config ~seed:5 "leave@2-1,join@4+2,preempt@5:r2");
        hetero = Some (Elastic.draw_hetero ~seed:7 ~executors:c.cluster.Cluster.executors);
      }
  | Speculate ->
      {
        Pricer.static with
        speculation = Some (Speculation.config ());
        faults = Some (Faults.config "straggler@1-3:x8");
      }

let run c =
  let pg = pgraph c in
  let cluster = c.cluster in
  let what_if = what_if c in
  let sink, read = Obs.Sink.ring ~capacity:(1 lsl 16) () in
  let telemetry = Obs.Telemetry.create ~sinks:[ sink ] () in
  let trace, values =
    match c.engine with
    | Pr_pregel ->
        let r =
          Algo.Pagerank.run ~what_if ~telemetry ~cluster pg
        in
        (r.Algo.Pagerank.trace, Fault_check.float_attrs_digest r.Algo.Pagerank.ranks)
    | Pr_gas ->
        let r =
          Algo.Pagerank.run_gas ~what_if ~telemetry ~cluster pg
        in
        (r.Algo.Pagerank.trace, Fault_check.float_attrs_digest r.Algo.Pagerank.ranks)
    | Cc_pregel ->
        let r =
          Algo.Connected_components.run ~what_if ~telemetry ~cluster pg
        in
        ( r.Algo.Connected_components.trace,
          Fault_check.int_attrs_digest r.Algo.Connected_components.labels )
    | Sssp_pregel ->
        let landmarks = Algo.Sssp.pick_landmarks ~seed:11L ~count:3 (Pgraph.graph pg) in
        let r =
          Algo.Sssp.run ~what_if ~telemetry ~cluster ~landmarks pg
        in
        ( r.Algo.Sssp.trace,
          Fault_check.int_attrs_digest (Array.concat (Array.to_list r.Algo.Sssp.distances)) )
    | Tr_boxed ->
        let r = Algo.Triangle_count.run ~telemetry ~cluster pg in
        (r.Algo.Triangle_count.trace, Fault_check.int_attrs_digest r.Algo.Triangle_count.per_vertex)
  in
  if Obs.Telemetry.events_emitted telemetry > 1 lsl 16 then
    failwith (key c ^ ": event stream overflowed the ring sink");
  Obs.Telemetry.close telemetry;
  { trace = Determinism.trace_digest trace; events = Determinism.events_digest (read ()); values }

let table =
  let t = Hashtbl.create 2048 in
  List.iter
    (fun (k, trace, events, values) -> Hashtbl.replace t k { trace; events; values })
    Golden_table.digests;
  t

let expected c = Hashtbl.find_opt table (key c)

(* [None] when the run matches its committed digests, else a one-line
   description of the first mismatch. *)
let check c =
  let got = run c in
  match expected c with
  | None -> Some (key c ^ ": no committed digest")
  | Some want ->
      let differ what a b =
        if String.equal a b then None
        else Some (Printf.sprintf "%s: %s digest %s, committed %s" (key c) what a b)
      in
      List.find_map Fun.id
        [
          differ "trace" got.trace want.trace;
          differ "events" got.events want.events;
          differ "values" got.values want.values;
        ]

let table_row c d = Printf.sprintf "    (%S, %S, %S, %S);" (key c) d.trace d.events d.values
