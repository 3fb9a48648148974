module Graph = Cutfit_graph.Graph

type t = {
  num_partitions : int;
  edges_per_partition : int array;
  vertices_per_partition : int array;
  balance : float;
  non_cut : int;
  cut : int;
  comm_cost : int;
  part_stdev : float;
  replication_factor : float;
  vertices_to_same : int;
  vertices_to_other : int;
}

(* Presence bitset: one bit per (vertex, partition) pair, packed in
   int words. 256 partitions over 154k vertices is ~5 MB. *)
let presence_words num_partitions = (num_partitions + 62) / 63

let replica_count g ~num_partitions assignment =
  let n = Graph.num_vertices g and m = Graph.num_edges g in
  if Array.length assignment <> m then invalid_arg "Metrics: assignment length mismatch";
  let words = presence_words num_partitions in
  let bits = Array.make (n * words) 0 in
  let mark v p =
    let w = (v * words) + (p / 63) and b = p mod 63 in
    bits.(w) <- bits.(w) lor (1 lsl b)
  in
  for i = 0 to m - 1 do
    let p = assignment.(i) in
    if p < 0 || p >= num_partitions then invalid_arg "Metrics: partition id out of range";
    mark (Graph.edge_src g i) p;
    mark (Graph.edge_dst g i) p
  done;
  let popcount x =
    let c = ref 0 and v = ref x in
    while !v <> 0 do
      v := !v land (!v - 1);
      incr c
    done;
    !c
  in
  Array.init n (fun v ->
      let acc = ref 0 in
      for w = 0 to words - 1 do
        acc := !acc + popcount bits.((v * words) + w)
      done;
      !acc)

let compute g ~num_partitions assignment =
  if num_partitions <= 0 then invalid_arg "Metrics.compute: num_partitions <= 0";
  let m = Graph.num_edges g in
  if Array.length assignment <> m then invalid_arg "Metrics.compute: assignment length mismatch";
  let edges_per_partition = Array.make num_partitions 0 in
  Array.iter
    (fun p ->
      if p < 0 || p >= num_partitions then invalid_arg "Metrics.compute: partition id out of range";
      edges_per_partition.(p) <- edges_per_partition.(p) + 1)
    assignment;
  let replicas = replica_count g ~num_partitions assignment in
  let vertices_per_partition = Array.make num_partitions 0 in
  (* Count local vertex-table sizes with a second presence sweep folded
     into replica counting would save a pass; clarity wins here. *)
  let words = presence_words num_partitions in
  let bits = Array.make (Graph.num_vertices g * words) 0 in
  for i = 0 to m - 1 do
    let p = assignment.(i) in
    let mark v =
      let w = (v * words) + (p / 63) and b = p mod 63 in
      if bits.(w) land (1 lsl b) = 0 then begin
        bits.(w) <- bits.(w) lor (1 lsl b);
        vertices_per_partition.(p) <- vertices_per_partition.(p) + 1
      end
    in
    mark (Graph.edge_src g i);
    mark (Graph.edge_dst g i)
  done;
  let non_cut = ref 0 and cut = ref 0 and comm_cost = ref 0 and present = ref 0 in
  let to_same = ref 0 and to_other = ref 0 in
  Array.iteri
    (fun v r ->
      if r = 1 then incr non_cut
      else if r > 1 then begin
        incr cut;
        comm_cost := !comm_cost + r
      end;
      if r > 0 then begin
        incr present;
        (* A replica collocated with the vertex's (identity-hash) master
           partition syncs locally; the rest need shipping. *)
        let mp = v mod num_partitions in
        let w = (v * words) + (mp / 63) and b = mp mod 63 in
        let at_master = bits.(w) land (1 lsl b) <> 0 in
        if at_master then begin
          incr to_same;
          to_other := !to_other + (r - 1)
        end
        else to_other := !to_other + r
      end)
    replicas;
  let avg = float_of_int m /. float_of_int num_partitions in
  let max_edges = Array.fold_left max 0 edges_per_partition in
  let balance = if avg = 0.0 then 1.0 else float_of_int max_edges /. avg in
  let part_stdev =
    Cutfit_stats.Summary.stdev (Array.map float_of_int edges_per_partition)
  in
  let replication_factor =
    if !present = 0 then 0.0
    else float_of_int (Array.fold_left ( + ) 0 replicas) /. float_of_int !present
  in
  {
    num_partitions;
    edges_per_partition;
    vertices_per_partition;
    balance;
    non_cut = !non_cut;
    cut = !cut;
    comm_cost = !comm_cost;
    part_stdev;
    replication_factor;
    vertices_to_same = !to_same;
    vertices_to_other = !to_other;
  }

let metric_names = [ "Balance"; "NonCut"; "Cut"; "CommCost"; "PartStDev" ]

let metric_value t = function
  | "Balance" -> t.balance
  | "NonCut" -> float_of_int t.non_cut
  | "Cut" -> float_of_int t.cut
  | "CommCost" -> float_of_int t.comm_cost
  | "PartStDev" -> t.part_stdev
  | "VtxToSame" -> float_of_int t.vertices_to_same
  | "VtxToOther" -> float_of_int t.vertices_to_other
  | "Replication" -> t.replication_factor
  | name -> invalid_arg ("Metrics.metric_value: unknown metric " ^ name)

let pp ppf t =
  Format.fprintf ppf "Balance=%.2f NonCut=%d Cut=%d CommCost=%d PartStDev=%.2f" t.balance t.non_cut
    t.cut t.comm_cost t.part_stdev
