module Graph = Cutfit_graph.Graph
module Streaming = Cutfit_partition.Streaming

type refreshed = {
  assignment : int array;
  placed_edges : int;
  repaired_vertices : int;
  moved_replicas : int;
}

let add p ps = if List.mem p ps then ps else p :: ps

(* |a Δ b| for two duplicate-free replica lists. *)
let symdiff_count a b =
  let common = List.fold_left (fun acc p -> if List.mem p b then acc + 1 else acc) 0 a in
  List.length a + List.length b - (2 * common)

let refresh heuristic ~num_partitions ~assignment (applied : Mutation.applied) =
  if num_partitions <= 0 then invalid_arg "Incremental.refresh: num_partitions <= 0";
  let before = applied.Mutation.before and g' = applied.Mutation.graph in
  let delta = applied.Mutation.delta in
  if Array.length assignment <> Graph.num_edges before then
    invalid_arg "Incremental.refresh: assignment length mismatch";
  Array.iter
    (fun p ->
      if p < 0 || p >= num_partitions then
        invalid_arg "Incremental.refresh: assignment partition out of range")
    assignment;
  (* Kept edges keep their partitions, so only an endpoint of a deleted
     or inserted edge can change its replica set. Each touched vertex
     maps to the distinct partitions of its deleted edges. *)
  let deleted_parts = Hashtbl.create 64 and touched = ref [] in
  let touch v =
    if not (Hashtbl.mem deleted_parts v) then begin
      Hashtbl.add deleted_parts v [];
      touched := v :: !touched
    end
  in
  Array.iter
    (fun e ->
      let p = assignment.(e) in
      List.iter
        (fun v ->
          touch v;
          Hashtbl.replace deleted_parts v (add p (Hashtbl.find deleted_parts v)))
        [ Graph.edge_src before e; Graph.edge_dst before e ])
    delta.Mutation.deletes;
  let repaired_vertices = Hashtbl.length deleted_parts in
  Array.iter
    (fun (s, t) ->
      touch s;
      touch t)
    delta.Mutation.inserts;
  (* Deletes trigger bounded local repair: the loads are rebuilt from
     the surviving edges (a shrink — no edge moves), priced by the
     vertices whose neighbourhood the deletes touched. Every later read
     of the live state is at a touched vertex (an insert's endpoint, or
     a vertex whose replicas are recounted) or of a load, so only the
     kept edges at a touched vertex replay their replicas and degrees;
     the rest charge their load alone. *)
  let n = Graph.num_vertices g' and m' = Graph.num_edges g' in
  let k = Array.length applied.Mutation.kept in
  let marked = Bytes.make n '\000' in
  List.iter (fun v -> Bytes.set marked v '\001') !touched;
  let src' = Graph.src_array g' and dst' = Graph.dst_array g' in
  let st = Streaming.live_create ~n ~num_partitions in
  let out = Array.make m' 0 in
  Array.iteri
    (fun j e ->
      let p = assignment.(e) and src = src'.(j) and dst = dst'.(j) in
      if Bytes.get marked src <> '\000' || Bytes.get marked dst <> '\000' then
        Streaming.live_record st ~src ~dst p
      else Streaming.live_add_load st p;
      out.(j) <- p)
    applied.Mutation.kept;
  (* A touched vertex's kept replicas K_v are live now; its old replica
     set was K_v plus the partitions of its deleted edges. *)
  let vw = Streaming.live_view g' st in
  let old_sets =
    List.map
      (fun v ->
        let kept_v = vw.Streaming.v_replicas v in
        (v, List.fold_left (fun ps p -> add p ps) kept_v (Hashtbl.find deleted_parts v)))
      !touched
  in
  (* Inserted edges are placed online by the wrapped streaming heuristic
     against the live state of the surviving cut. *)
  for j = k to m' - 1 do
    let src = src'.(j) and dst = dst'.(j) in
    let p = Streaming.choose heuristic vw ~num_partitions ~src ~dst in
    Streaming.live_record st ~src ~dst p;
    out.(j) <- p
  done;
  (* The new replica set is K_v plus the partitions of v's inserts. *)
  let moved_replicas =
    List.fold_left
      (fun acc (v, old) -> acc + symdiff_count old (vw.Streaming.v_replicas v))
      0 old_sets
  in
  { assignment = out; placed_edges = m' - k; repaired_vertices; moved_replicas }
