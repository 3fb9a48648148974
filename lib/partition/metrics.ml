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
   int words. 256 partitions over 154k vertices is ~5 MB. Only the
   oracles ([replica_count] here, the pgraph sanitizer) use it;
   [presence] needs O(n + m + P). *)
let presence_words num_partitions = (num_partitions + 62) / 63

(* Set bits of a 63-bit int in constant time (SWAR). The top byte of
   the final product holds the sum of all byte counts; 63 fits in its
   seven bits. *)
let popcount x =
  let x = x - ((x lsr 1) land 0x5555_5555_5555_5555) in
  let x = (x land 0x3333_3333_3333_3333) + ((x lsr 2) land 0x3333_3333_3333_3333) in
  let x = (x + (x lsr 4)) land 0x0f0f_0f0f_0f0f_0f0f in
  (x * 0x0101_0101_0101_0101) lsr 56

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
  Array.init n (fun v ->
      let acc = ref 0 in
      for w = 0 to words - 1 do
        acc := !acc + popcount bits.((v * words) + w)
      done;
      !acc)

type presence = {
  part_off : int array;
  part_edges : int array;
  route_off : int array;
  local_verts : int array;
  at_master : int;
}

let presence ~who g ~num_partitions assignment =
  let n = Graph.num_vertices g and m = Graph.num_edges g in
  if num_partitions <= 0 then invalid_arg (who ^ ": num_partitions <= 0");
  if Array.length assignment <> m then invalid_arg (who ^ ": assignment length mismatch");
  (* Group edge ids by partition with a counting sort. *)
  let part_off = Array.make (num_partitions + 1) 0 in
  for e = 0 to m - 1 do
    let p = assignment.(e) in
    if p < 0 || p >= num_partitions then invalid_arg (who ^ ": partition out of range");
    part_off.(p + 1) <- part_off.(p + 1) + 1
  done;
  for p = 1 to num_partitions do
    part_off.(p) <- part_off.(p) + part_off.(p - 1)
  done;
  let part_edges = Array.make m 0 in
  let cursor = Array.sub part_off 0 num_partitions in
  for e = 0 to m - 1 do
    let p = assignment.(e) in
    part_edges.(cursor.(p)) <- e;
    cursor.(p) <- cursor.(p) + 1
  done;
  (* Walk the partitions in ascending order, stamping the last partition
     each vertex was seen in, so each (vertex, partition) pair is met
     once. Replica counts accumulate in route_off.(v + 1) and become
     offsets at the end. *)
  let src = Graph.src_array g and dst = Graph.dst_array g in
  let stamp = Array.make n (-1) in
  let route_off = Array.make (n + 1) 0 in
  let local_verts = Array.make num_partitions 0 in
  let at_master = ref 0 in
  for p = 0 to num_partitions - 1 do
    let local = ref 0 in
    for i = part_off.(p) to part_off.(p + 1) - 1 do
      let e = part_edges.(i) in
      let s = src.(e) and d = dst.(e) in
      if stamp.(s) <> p then begin
        stamp.(s) <- p;
        route_off.(s + 1) <- route_off.(s + 1) + 1;
        incr local
      end;
      if stamp.(d) <> p then begin
        stamp.(d) <- p;
        route_off.(d + 1) <- route_off.(d + 1) + 1;
        incr local
      end
    done;
    local_verts.(p) <- !local;
    (* The vertices mastered here (identity hash: v mod P = p) are
       p, p + P, ...; a stamp of p means this partition holds a replica. *)
    let v = ref p in
    while !v < n do
      if stamp.(!v) = p then incr at_master;
      v := !v + num_partitions
    done
  done;
  for v = 1 to n do
    route_off.(v) <- route_off.(v) + route_off.(v - 1)
  done;
  { part_off; part_edges; route_off; local_verts; at_master = !at_master }

let of_presence pr =
  let num_partitions = Array.length pr.part_off - 1 and n = Array.length pr.route_off - 1 in
  let edges_per_partition = Array.init num_partitions (fun p -> pr.part_off.(p + 1) - pr.part_off.(p)) in
  let non_cut = ref 0 and cut = ref 0 and comm_cost = ref 0 in
  for v = 0 to n - 1 do
    let r = pr.route_off.(v + 1) - pr.route_off.(v) in
    if r = 1 then incr non_cut
    else if r > 1 then begin
      incr cut;
      comm_cost := !comm_cost + r
    end
  done;
  let replicas = pr.route_off.(n) and present = !non_cut + !cut in
  let avg = float_of_int pr.part_off.(num_partitions) /. float_of_int num_partitions in
  let max_edges = Array.fold_left max 0 edges_per_partition in
  let balance = if avg = 0.0 then 1.0 else float_of_int max_edges /. avg in
  let part_stdev = Cutfit_stats.Summary.stdev (Array.map float_of_int edges_per_partition) in
  let replication_factor =
    if present = 0 then 0.0 else float_of_int replicas /. float_of_int present
  in
  {
    num_partitions;
    edges_per_partition;
    vertices_per_partition = Array.copy pr.local_verts;
    balance;
    non_cut = !non_cut;
    cut = !cut;
    comm_cost = !comm_cost;
    part_stdev;
    replication_factor;
    (* A replica collocated with the vertex's (identity-hash) master
       partition syncs locally; the rest need shipping. *)
    vertices_to_same = pr.at_master;
    vertices_to_other = replicas - pr.at_master;
  }

let compute g ~num_partitions assignment =
  of_presence (presence ~who:"Metrics.compute" g ~num_partitions assignment)

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
