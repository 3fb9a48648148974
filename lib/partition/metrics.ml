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

(* The one record builder: every float of [t] is derived here, from the
   counts either sweep produces. *)
let make ~edges_per_partition ~vertices_per_partition ~non_cut ~cut ~comm_cost ~replicas ~at_master
    =
  let num_partitions = Array.length edges_per_partition in
  let present = non_cut + cut in
  let avg =
    float_of_int (Array.fold_left ( + ) 0 edges_per_partition) /. float_of_int num_partitions
  in
  let max_edges = Array.fold_left max 0 edges_per_partition in
  let balance = if avg = 0.0 then 1.0 else float_of_int max_edges /. avg in
  let part_stdev = Cutfit_stats.Summary.stdev (Array.map float_of_int edges_per_partition) in
  let replication_factor =
    if present = 0 then 0.0 else float_of_int replicas /. float_of_int present
  in
  {
    num_partitions;
    edges_per_partition;
    vertices_per_partition;
    balance;
    non_cut;
    cut;
    comm_cost;
    part_stdev;
    replication_factor;
    (* A replica collocated with the vertex's (identity-hash) master
       partition syncs locally; the rest need shipping. *)
    vertices_to_same = at_master;
    vertices_to_other = replicas - at_master;
  }

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
  make ~edges_per_partition ~vertices_per_partition:(Array.copy pr.local_verts) ~non_cut:!non_cut
    ~cut:!cut ~comm_cost:!comm_cost ~replicas:pr.route_off.(n) ~at_master:pr.at_master

(* --- the six hash strategies, straight from the adjacency ---

   A vertex is present in partition p when one of its out- or in-edges
   lands there, so each vertex's out- and in-list give its partitions
   without any assignment array. One [sweep] per candidate holds a
   P-sized stamp ([stamp.(p) = v]: pair (v, p) already met), the
   partition counts and the per-vertex tallies. Each edge is counted
   in [edges] once, from one side. *)
type sweep = {
  stamp : int array;
  edges : int array;
  local : int array;
  mutable non_cut : int;
  mutable cut : int;
  mutable comm_cost : int;
  mutable replicas : int;
  mutable at_master : int;
}

let sweep num_partitions =
  {
    stamp = Array.make num_partitions (-1);
    edges = Array.make num_partitions 0;
    local = Array.make num_partitions 0;
    non_cut = 0;
    cut = 0;
    comm_cost = 0;
    replicas = 0;
    at_master = 0;
  }

(* 1 when this is the first meeting of (v, p), which it records. *)
let[@inline] visit sw v p =
  if Array.unsafe_get sw.stamp p = v then 0
  else begin
    Array.unsafe_set sw.stamp p v;
    Array.unsafe_set sw.local p (Array.unsafe_get sw.local p + 1);
    1
  end

(* Close vertex v, met in [r] partitions, whose master is [master]. *)
let[@inline] tally sw v ~master r =
  if r = 1 then sw.non_cut <- sw.non_cut + 1
  else if r > 1 then begin
    sw.cut <- sw.cut + 1;
    sw.comm_cost <- sw.comm_cost + r
  end;
  sw.replicas <- sw.replicas + r;
  if sw.stamp.(master) = v then sw.at_master <- sw.at_master + 1

let finish sw =
  make ~edges_per_partition:sw.edges ~vertices_per_partition:sw.local ~non_cut:sw.non_cut
    ~cut:sw.cut ~comm_cost:sw.comm_cost ~replicas:sw.replicas ~at_master:sw.at_master

(* SC, 1D and DC: every edge of v on the [whole] side lands in [tbl.(v)]
   (SC and 1D: v's out-edges; DC: its in-edges), and an edge from the
   other side's neighbour u in [tbl.(u)]. *)
let by_vertex ~num_partitions ~master tbl (whole_off, _) (other_off, other_adj) =
  let sw = sweep num_partitions in
  for v = 0 to Array.length whole_off - 2 do
    let d = whole_off.(v + 1) - whole_off.(v) in
    let r = ref 0 in
    if d > 0 then begin
      let p = tbl.(v) in
      sw.edges.(p) <- sw.edges.(p) + d;
      r := visit sw v p
    end;
    for i = other_off.(v) to other_off.(v + 1) - 1 do
      r := !r + visit sw v (Array.unsafe_get tbl (Array.unsafe_get other_adj i))
    done;
    tally sw v ~master:master.(v) !r
  done;
  finish sw

let two_d ~num_partitions ~master (t : Strategy.tables) (out_off, out_adj) (in_off, in_adj) =
  let sw = sweep num_partitions in
  let base = t.grid_base and last = t.grid_last_base in
  for v = 0 to Array.length out_off - 2 do
    let r = ref 0 in
    let bv = base.(v) in
    let rows = if bv < last then t.grid_row else t.grid_row_last in
    for i = out_off.(v) to out_off.(v + 1) - 1 do
      let p = bv + Array.unsafe_get rows (Array.unsafe_get out_adj i) in
      Array.unsafe_set sw.edges p (Array.unsafe_get sw.edges p + 1);
      r := !r + visit sw v p
    done;
    let row = t.grid_row.(v) and row_last = t.grid_row_last.(v) in
    for i = in_off.(v) to in_off.(v + 1) - 1 do
      let bu = Array.unsafe_get base (Array.unsafe_get in_adj i) in
      r := !r + visit sw v (bu + if bu < last then row else row_last)
    done;
    tally sw v ~master:master.(v) !r
  done;
  finish sw

(* RVC and CRVC in one sweep: both place an edge with src < dst (and a
   self-loop) in [hash2 src dst], so that hash serves both. *)
let pair_hashed ~num_partitions ~master (out_off, out_adj) (in_off, in_adj) =
  let rvc = sweep num_partitions and crvc = sweep num_partitions in
  let hash u v = Hashing.hash2 u v ~num_partitions in
  for v = 0 to Array.length out_off - 2 do
    let r = ref 0 and c = ref 0 in
    for i = out_off.(v) to out_off.(v + 1) - 1 do
      let w = Array.unsafe_get out_adj i in
      let p = hash v w in
      let q = if v <= w then p else hash w v in
      Array.unsafe_set rvc.edges p (Array.unsafe_get rvc.edges p + 1);
      Array.unsafe_set crvc.edges q (Array.unsafe_get crvc.edges q + 1);
      r := !r + visit rvc v p;
      c := !c + visit crvc v q
    done;
    for i = in_off.(v) to in_off.(v + 1) - 1 do
      let u = Array.unsafe_get in_adj i in
      let p = hash u v in
      let q = if u <= v then p else hash v u in
      r := !r + visit rvc v p;
      c := !c + visit crvc v q
    done;
    tally rvc v ~master:master.(v) !r;
    tally crvc v ~master:master.(v) !c
  done;
  (finish rvc, finish crvc)

let of_hash g ~num_partitions =
  if num_partitions <= 0 then invalid_arg "Metrics.of_hash: num_partitions <= 0";
  let t = Strategy.tables ~num_partitions (Graph.num_vertices g) in
  let out = Graph.out_csr g and inn = Graph.in_csr g and master = t.modulo in
  let rvc, crvc = pair_hashed ~num_partitions ~master out inn in
  List.map
    (fun s ->
      ( s,
        match (s : Strategy.t) with
        | Rvc -> rvc
        | Crvc -> crvc
        | One_d -> by_vertex ~num_partitions ~master t.hashed out inn
        | Sc -> by_vertex ~num_partitions ~master t.modulo out inn
        | Dc -> by_vertex ~num_partitions ~master t.modulo inn out
        | Two_d -> two_d ~num_partitions ~master t out inn ))
    Strategy.all

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
