module Graph = Cutfit_graph.Graph
module Streaming = Cutfit_partition.Streaming
module Metrics = Cutfit_partition.Metrics
module Cluster = Cutfit_bsp.Cluster
module Pgraph = Cutfit_bsp.Pgraph
module Pagerank = Cutfit_algo.Pagerank
module Violation = Cutfit_check.Violation
module Pgraph_check = Cutfit_check.Pgraph_check
module Metrics_check = Cutfit_check.Metrics_check
module Fault_check = Cutfit_check.Fault_check

let suite = "dynamic"

let v rule fmt = Violation.v ~suite ~rule fmt

let cap = 8

let capped violations = if List.length violations > cap then List.filteri (fun i _ -> i < cap) violations else violations

(* Law 1: a delta-applied graph is the graph — bit-identical vertex
   count, edge arrays and CSR adjacency (offsets and buckets, both
   directions) of a from-scratch build over the same edge list.
   [Mutation.apply] splices the adjacency from the pre-delta graph's,
   so the adjacency is checked on its own, not inferred from the edges. *)
let graph_identity ~expect got =
  let errs = ref [] in
  let push x = errs := x :: !errs in
  if Graph.num_vertices expect <> Graph.num_vertices got then
    push
      (v "delta-identity" "vertex count %d, from-scratch build has %d" (Graph.num_vertices got)
         (Graph.num_vertices expect));
  if Graph.num_edges expect <> Graph.num_edges got then
    push
      (v "delta-identity" "edge count %d, from-scratch build has %d" (Graph.num_edges got)
         (Graph.num_edges expect))
  else
    for e = 0 to Graph.num_edges expect - 1 do
      if
        Graph.edge_src expect e <> Graph.edge_src got e
        || Graph.edge_dst expect e <> Graph.edge_dst got e
      then
        push
          (v "delta-identity" "edge %d is %d->%d, from-scratch build has %d->%d" e
             (Graph.edge_src got e) (Graph.edge_dst got e) (Graph.edge_src expect e)
             (Graph.edge_dst expect e))
    done;
  (* One report per CSR array: its first differing slot. *)
  let same what (want : int array) (have : int array) =
    let len = min (Array.length want) (Array.length have) in
    let i = ref 0 in
    while !i < len && want.(!i) = have.(!i) do
      incr i
    done;
    if !i < len then
      push
        (v "delta-identity" "%s slot %d is %d, from-scratch build has %d" what !i have.(!i)
           want.(!i))
    else if Array.length want <> Array.length have then
      push
        (v "delta-identity" "%s has %d slots, from-scratch build has %d" what (Array.length have)
           (Array.length want))
  in
  let (eo, ea), (go, ga) = (Graph.out_csr expect, Graph.out_csr got) in
  let (ei, eb), (gi, gb) = (Graph.in_csr expect, Graph.in_csr got) in
  same "out-offsets" eo go;
  same "out-adjacency" ea ga;
  same "in-offsets" ei gi;
  same "in-adjacency" eb gb;
  capped (List.rev !errs)

(* Validate a raw cut before anything is built from it, then build it
   once: the cut laws and the value law share this one Pgraph. *)
let build_checked g ~num_partitions assignment =
  match Pgraph_check.assignment g ~num_partitions assignment with
  | _ :: _ as bad -> Error bad
  | [] -> Ok (Pgraph.build g ~num_partitions assignment)

(* Law 2: a refreshed cut is a first-class cut — it satisfies every
   Pgraph_check and Metrics_check law a cold-built one does. *)
let cut_laws g ~num_partitions assignment pg =
  Pgraph_check.validate pg @ Metrics_check.validate g ~num_partitions assignment (Pgraph.metrics pg)

(* Law 3: building and running on the refreshed assignment is
   reproducible. There is no incremental Pgraph — a refreshed cut is
   always built from scratch — so the law compares PageRank on [warm],
   the Pgraph the cut laws validated, with PageRank on a second build
   from a copy of the assignment: the values must be bit-identical. *)
let value_equivalence ?(cluster = Cluster.config_i) ~warm assignment =
  let num_partitions = Pgraph.num_partitions warm in
  (* The engines insist the cluster agrees with the cut's granularity. *)
  let cluster = { cluster with Cluster.num_partitions } in
  let cold = Pgraph.build (Pgraph.graph warm) ~num_partitions (Array.copy assignment) in
  let warm_ranks = (Pagerank.run ~iterations:3 ~cluster warm).Pagerank.ranks in
  let cold_ranks = (Pagerank.run ~iterations:3 ~cluster cold).Pagerank.ranks in
  let dw = Fault_check.float_attrs_digest warm_ranks in
  let dc = Fault_check.float_attrs_digest cold_ranks in
  if String.equal dw dc then []
  else
    [
      v "refresh-rebuild-equivalence"
        "PageRank on the refreshed cut digests to %s but a cold rebuild of the same \
         assignment gives %s"
        dw dc;
    ]

(* Law 4: the refresh's delta-local moved count equals the replica
   entries that differ between the old and new cuts' route tables, a
   merge of each vertex's two sorted segments. *)
let moved_between old_pg new_pg =
  let o_off = Pgraph.route_off old_pg and o_parts = Pgraph.route_parts old_pg in
  let n_off = Pgraph.route_off new_pg and n_parts = Pgraph.route_parts new_pg in
  let moved = ref 0 in
  for v = 0 to Array.length o_off - 2 do
    let i = ref o_off.(v) and j = ref n_off.(v) in
    let i_end = o_off.(v + 1) and j_end = n_off.(v + 1) in
    while !i < i_end && !j < j_end do
      let a = o_parts.(!i) and b = n_parts.(!j) in
      if a = b then begin
        incr i;
        incr j
      end
      else begin
        incr moved;
        if a < b then incr i else incr j
      end
    done;
    moved := !moved + (i_end - !i) + (j_end - !j)
  done;
  !moved

let moved_replicas ~batch ~old_pg ~warm (r : Incremental.refreshed) =
  let want = moved_between old_pg warm in
  if want = r.Incremental.moved_replicas then []
  else
    [
      v "moved-replicas"
        "batch %d: the refresh counted %d moved replica entries, but the old and new cuts' \
         route tables differ in %d"
        batch r.Incremental.moved_replicas want;
    ]

let validate ?cluster ?batches ~heuristic ~num_partitions cfg g0 =
  if num_partitions <= 0 then invalid_arg "Dyn_check.validate: num_partitions <= 0";
  let batches = match batches with Some b -> b | None -> Mutation.max_batch cfg in
  (* Independent mirror of the edge list: deltas are applied as plain
     array edits here, never via Graph, so Law 1 compares two separate
     constructions. *)
  let mirror_src = ref (Array.copy (Graph.src_array g0)) in
  let mirror_dst = ref (Array.copy (Graph.dst_array g0)) in
  let n = Graph.num_vertices g0 in
  let g = ref g0 in
  let a = ref (Streaming.assign heuristic ~num_partitions g0) in
  (* The previous batch's validated build is the next batch's old cut;
     the initial cut is built when the first non-empty batch needs it. *)
  let prev_pg = ref None in
  let errs = ref [] in
  for batch = 1 to batches do
    let delta = Mutation.plan cfg ~batch !g in
    if not (Mutation.is_empty delta) then begin
      (* mirror update *)
      let m = Array.length !mirror_src in
      let dead = Array.make m false in
      Array.iter (fun e -> dead.(e) <- true) delta.Mutation.deletes;
      let kept = ref [] in
      for e = m - 1 downto 0 do
        if not dead.(e) then kept := e :: !kept
      done;
      let kept = Array.of_list !kept in
      let extra = Array.length delta.Mutation.inserts in
      let k = Array.length kept in
      let src' = Array.make (k + extra) 0 and dst' = Array.make (k + extra) 0 in
      Array.iteri
        (fun j e ->
          src'.(j) <- !mirror_src.(e);
          dst'.(j) <- !mirror_dst.(e))
        kept;
      Array.iteri
        (fun i (s, t) ->
          src'.(k + i) <- s;
          dst'.(k + i) <- t)
        delta.Mutation.inserts;
      mirror_src := src';
      mirror_dst := dst';
      (* delta application + refresh under test *)
      let old_pg =
        match !prev_pg with
        | Some _ as pg -> pg
        | None -> Result.to_option (build_checked !g ~num_partitions !a)
      in
      let applied = Mutation.apply !g delta in
      let refreshed = Incremental.refresh heuristic ~num_partitions ~assignment:!a applied in
      let g' = applied.Mutation.graph in
      let scratch = Graph.create ~n ~src:(Array.copy src') ~dst:(Array.copy dst') in
      let a' = refreshed.Incremental.assignment in
      let warm = build_checked g' ~num_partitions a' in
      let cut_vs =
        match warm with
        | Error bad -> bad
        | Ok warm ->
            cut_laws g' ~num_partitions a' warm
            @ value_equivalence ?cluster ~warm a'
            @
            match old_pg with
            | Some old_pg -> moved_replicas ~batch ~old_pg ~warm refreshed
            | None -> []
      in
      errs := !errs @ graph_identity ~expect:scratch g' @ cut_vs;
      prev_pg := Result.to_option warm;
      g := g';
      a := a'
    end
  done;
  !errs
