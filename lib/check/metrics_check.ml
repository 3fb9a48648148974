module Graph = Cutfit_graph.Graph
module Metrics = Cutfit_partition.Metrics

let suite = "metrics"

(* Structural self-consistency of a metrics record, without recomputing
   from the graph. The last check is the paper's §3.1 identity. *)
let identity (t : Metrics.t) =
  let acc = ref [] in
  let bad rule fmt = Format.kasprintf (fun d -> acc := Violation.v ~suite ~rule "%s" d :: !acc) fmt in
  if t.Metrics.num_partitions <= 0 then
    bad "num-partitions" "num_partitions = %d, expected > 0" t.Metrics.num_partitions;
  if Array.length t.Metrics.edges_per_partition <> t.Metrics.num_partitions then
    bad "edges-per-partition" "edges_per_partition has %d entries for %d partitions"
      (Array.length t.Metrics.edges_per_partition)
      t.Metrics.num_partitions;
  if Array.length t.Metrics.vertices_per_partition <> t.Metrics.num_partitions then
    bad "vertices-per-partition" "vertices_per_partition has %d entries for %d partitions"
      (Array.length t.Metrics.vertices_per_partition)
      t.Metrics.num_partitions;
  List.iter
    (fun (name, v) -> if v < 0 then bad "negative-count" "%s = %d, expected >= 0" name v)
    [
      ("non_cut", t.Metrics.non_cut);
      ("cut", t.Metrics.cut);
      ("comm_cost", t.Metrics.comm_cost);
      ("vertices_to_same", t.Metrics.vertices_to_same);
      ("vertices_to_other", t.Metrics.vertices_to_other);
    ];
  (* Every cut vertex is present in >= 2 partitions. *)
  if t.Metrics.comm_cost < 2 * t.Metrics.cut then
    bad "comm-cost-floor" "comm_cost = %d < 2 * cut = %d" t.Metrics.comm_cost (2 * t.Metrics.cut);
  (* §3.1: every replica of a present vertex is synchronized either
     locally at its master (VtxToSame) or over the wire (VtxToOther),
     and the replicas number CommCost + NonCut in total. *)
  let lhs = t.Metrics.comm_cost + t.Metrics.non_cut in
  let rhs = t.Metrics.vertices_to_same + t.Metrics.vertices_to_other in
  if lhs <> rhs then
    bad "replica-identity" "comm_cost + non_cut = %d but vertices_to_same + vertices_to_other = %d"
      lhs rhs;
  List.rev !acc

let validate g ~num_partitions assignment (t : Metrics.t) =
  match Pgraph_check.assignment g ~num_partitions assignment with
  | _ :: _ as bad -> bad
  | [] ->
      let r = Metrics.compute g ~num_partitions assignment in
      let acc = ref [] in
      let bad rule fmt =
        Format.kasprintf (fun d -> acc := Violation.v ~suite ~rule "%s" d :: !acc) fmt
      in
      let check_int name got want =
        if got <> want then bad name "%s = %d, recomputed %d" name got want
      in
      (* [t] normally comes from the Pgraph layout (Pgraph.metrics) and
         [r] from the raw assignment (Metrics.compute): two paths into
         one record builder, so floats must agree bit for bit. *)
      let check_float name got want =
        if not (Int64.equal (Int64.bits_of_float got) (Int64.bits_of_float want)) then
          bad name "%s = %.17g, recomputed %.17g" name got want
      in
      check_int "num-partitions" t.Metrics.num_partitions r.Metrics.num_partitions;
      if t.Metrics.edges_per_partition <> r.Metrics.edges_per_partition then
        bad "edges-per-partition" "edges_per_partition disagrees with recomputation";
      if t.Metrics.vertices_per_partition <> r.Metrics.vertices_per_partition then
        bad "vertices-per-partition" "vertices_per_partition disagrees with recomputation";
      check_int "non-cut" t.Metrics.non_cut r.Metrics.non_cut;
      check_int "cut" t.Metrics.cut r.Metrics.cut;
      check_int "comm-cost" t.Metrics.comm_cost r.Metrics.comm_cost;
      check_int "vertices-to-same" t.Metrics.vertices_to_same r.Metrics.vertices_to_same;
      check_int "vertices-to-other" t.Metrics.vertices_to_other r.Metrics.vertices_to_other;
      check_float "balance" t.Metrics.balance r.Metrics.balance;
      check_float "part-stdev" t.Metrics.part_stdev r.Metrics.part_stdev;
      check_float "replication-factor" t.Metrics.replication_factor r.Metrics.replication_factor;
      (* The replica_count cross-check: CommCost + NonCut must equal the
         number of replicas counted directly from the presence relation. *)
      let replicas = Metrics.replica_count g ~num_partitions assignment in
      let total = Array.fold_left ( + ) 0 replicas in
      if t.Metrics.comm_cost + t.Metrics.non_cut <> total then
        bad "replica-count" "comm_cost + non_cut = %d but replica_count sums to %d"
          (t.Metrics.comm_cost + t.Metrics.non_cut)
          total;
      List.rev !acc @ identity t
