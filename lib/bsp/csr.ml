module Graph = Cutfit_graph.Graph

type int_buf = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
type float_buf = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  graph : Graph.t;
  num_partitions : int;
  num_vertices : int;
  num_edges : int;
  num_slots : int;
  part_off : int_buf;
  edge_src : int_buf;
  edge_dst : int_buf;
  src_slot : int_buf;
  dst_slot : int_buf;
  slot_off : int_buf;
  slot_vertex : int_buf;
  num_chunks : int;
  group_off : int_buf;
  out_deg : int_buf;
  facc : float_buf;
  iacc : int_buf;
  has : Bytes.t;
}

let int_buf len : int_buf = Bigarray.Array1.create Bigarray.int Bigarray.c_layout len
let float_buf len : float_buf = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout len

let chunk = 4096

let build pg =
  let g = Pgraph.graph pg in
  let n = Graph.num_vertices g in
  let num_partitions = Pgraph.num_partitions pg in
  let m = Graph.num_edges g in
  let s = Pgraph.total_replicas pg in
  let part_off = int_buf (num_partitions + 1) in
  let slot_off = int_buf (num_partitions + 1) in
  part_off.{0} <- 0;
  slot_off.{0} <- 0;
  let max_local = ref 0 in
  for p = 0 to num_partitions - 1 do
    part_off.{p + 1} <- part_off.{p} + Pgraph.num_edges_of_partition pg p;
    slot_off.{p + 1} <- slot_off.{p} + Pgraph.local_vertices pg p;
    max_local := max !max_local (Pgraph.local_vertices pg p)
  done;
  if part_off.{num_partitions} <> m then invalid_arg "Csr.build: edge total mismatch";
  if slot_off.{num_partitions} <> s then invalid_arg "Csr.build: slot total mismatch";
  let edge_src = int_buf m and edge_dst = int_buf m in
  let src_slot = int_buf m and dst_slot = int_buf m in
  let slot_vertex = int_buf s in
  let num_chunks = (n + chunk - 1) / chunk in
  let group_off = int_buf ((num_partitions * num_chunks) + 1) in
  group_off.{num_partitions * num_chunks} <- s;
  (* Per partition: one pass over its edges lists the distinct vertices
     in first-touch order (the order Pgraph's own stamping pass uses)
     and counts them per reduce chunk; the counts become the group
     starts, each vertex takes the next slot of its chunk's group, and
     a second pass resolves both endpoint slots of every edge. *)
  let mark = Array.make n (-1) in
  let vertex_slot = Array.make n 0 in
  let first_touch = Array.make !max_local 0 in
  let cursor = Array.make num_chunks 0 in
  let pg_off = Pgraph.part_off pg and pg_edges = Pgraph.part_edges pg in
  let gsrc = Graph.src_array g and gdst = Graph.dst_array g in
  for p = 0 to num_partitions - 1 do
    let local = ref 0 in
    let touch v =
      if mark.(v) <> p then begin
        mark.(v) <- p;
        first_touch.(!local) <- v;
        incr local;
        let ch = v / chunk in
        cursor.(ch) <- cursor.(ch) + 1
      end
    in
    for i = pg_off.(p) to pg_off.(p + 1) - 1 do
      let e = pg_edges.(i) in
      let src = gsrc.(e) and dst = gdst.(e) in
      touch src;
      touch dst;
      edge_src.{i} <- src;
      edge_dst.{i} <- dst
    done;
    if slot_off.{p} + !local <> slot_off.{p + 1} then
      invalid_arg "Csr.build: local vertex table mismatch";
    let start = ref slot_off.{p} in
    for ch = 0 to num_chunks - 1 do
      group_off.{(p * num_chunks) + ch} <- !start;
      let size = cursor.(ch) in
      cursor.(ch) <- !start;
      start := !start + size
    done;
    for j = 0 to !local - 1 do
      let v = first_touch.(j) in
      let ch = v / chunk in
      let slot = cursor.(ch) in
      cursor.(ch) <- slot + 1;
      vertex_slot.(v) <- slot;
      slot_vertex.{slot} <- v
    done;
    Array.fill cursor 0 num_chunks 0;
    for i = pg_off.(p) to pg_off.(p + 1) - 1 do
      src_slot.{i} <- vertex_slot.(edge_src.{i});
      dst_slot.{i} <- vertex_slot.(edge_dst.{i})
    done
  done;
  let out_deg = int_buf n in
  for v = 0 to n - 1 do
    out_deg.{v} <- Graph.out_degree g v
  done;
  let facc = float_buf s and iacc = int_buf s in
  Bigarray.Array1.fill facc 0.0;
  Bigarray.Array1.fill iacc 0;
  {
    graph = g;
    num_partitions;
    num_vertices = n;
    num_edges = m;
    num_slots = s;
    part_off;
    edge_src;
    edge_dst;
    src_slot;
    dst_slot;
    slot_off;
    slot_vertex;
    num_chunks;
    group_off;
    out_deg;
    facc;
    iacc;
    has = Bytes.make s '\000';
  }

let shadow ?(vertex_space = false) ~workers c =
  let slots = if vertex_space then c.num_vertices else c.num_slots in
  Ownership.create ~slots ~workers

type span = Part_edges | Chunk_slots

(* A buffer holds one work item's records, so it is as long as the
   phase's largest item. *)
let logs ?shadow ~domains span c =
  match shadow with
  | None -> Array.make domains [||]
  | Some _ ->
      let largest items width =
        let m = ref 0 in
        for i = 0 to items - 1 do
          m := max !m (width i)
        done;
        !m
      in
      let size =
        match span with
        | Part_edges -> largest c.num_partitions (fun p -> c.part_off.{p + 1} - c.part_off.{p})
        | Chunk_slots ->
            largest c.num_chunks (fun ch ->
                let slots = ref 0 in
                for p = 0 to c.num_partitions - 1 do
                  let grp = (p * c.num_chunks) + ch in
                  slots := !slots + c.group_off.{grp + 1} - c.group_off.{grp}
                done;
                !slots)
      in
      Array.init domains (fun _ -> Array.make size 0)
