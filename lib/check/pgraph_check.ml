module Graph = Cutfit_graph.Graph
module Metrics = Cutfit_partition.Metrics
module Pgraph = Cutfit_bsp.Pgraph

let suite = "pgraph"

(* Cap per-rule reports so a corrupted structure yields a readable
   diagnosis, not one violation per vertex. *)
let max_reports = 5

type reporter = { mutable out : Violation.t list; mutable dropped : int; rule : string }

let reporter rule = { out = []; dropped = 0; rule }

let report r fmt =
  Format.kasprintf
    (fun detail ->
      if List.length r.out < max_reports then
        r.out <- Violation.v ~suite ~rule:r.rule "%s" detail :: r.out
      else r.dropped <- r.dropped + 1)
    fmt

let flush r =
  let out = List.rev r.out in
  if r.dropped = 0 then out
  else out @ [ Violation.v ~suite ~rule:r.rule "... and %d more like this" r.dropped ]

let assignment g ~num_partitions a =
  let m = Graph.num_edges g in
  if num_partitions <= 0 then
    [ Violation.v ~suite ~rule:"num-partitions" "num_partitions = %d, expected > 0" num_partitions ]
  else if Array.length a <> m then
    [
      Violation.v ~suite ~rule:"assignment-length" "assignment has %d entries for %d edges"
        (Array.length a) m;
    ]
  else begin
    let r = reporter "assignment-range" in
    Array.iteri
      (fun e p ->
        if p < 0 || p >= num_partitions then
          report r "edge %d assigned to partition %d outside [0, %d)" e p num_partitions)
      a;
    flush r
  end

type view = {
  graph : Graph.t;
  num_partitions : int;
  assignment : int array;
  edges_of_partition : int -> int array;
  replicas : int -> int array;
  master : int -> int;
  local_vertices : int -> int;
  total_replicas : int;
}

let view_of_pgraph pg =
  {
    graph = Pgraph.graph pg;
    num_partitions = Pgraph.num_partitions pg;
    assignment = Pgraph.assignment pg;
    edges_of_partition = Pgraph.edges_of_partition pg;
    replicas = Pgraph.replicas pg;
    master = Pgraph.master pg;
    local_vertices = Pgraph.local_vertices pg;
    total_replicas = Pgraph.total_replicas pg;
  }

let validate_view t =
  let g = t.graph in
  let n = Graph.num_vertices g and m = Graph.num_edges g in
  let p_count = t.num_partitions in
  match assignment g ~num_partitions:p_count t.assignment with
  | _ :: _ as bad -> bad (* dependent checks would index out of bounds *)
  | [] ->
      let acc = ref [] in
      let add r = acc := !acc @ flush r in
      (* Every edge appears in exactly one partition's edge list, and in
         the partition its assignment names. *)
      let seen = Array.make m 0 in
      let cover = reporter "edge-coverage" in
      for p = 0 to p_count - 1 do
        Array.iter
          (fun e ->
            if e < 0 || e >= m then
              report cover "partition %d lists edge %d outside [0, %d)" p e m
            else begin
              seen.(e) <- seen.(e) + 1;
              if seen.(e) = 2 then report cover "edge %d appears in more than one edge list" e;
              if t.assignment.(e) <> p then
                report cover "edge %d is in partition %d's list but assigned to %d" e p
                  t.assignment.(e)
            end)
          (t.edges_of_partition p)
      done;
      Array.iteri
        (fun e c -> if c = 0 then report cover "edge %d is in no partition's edge list" e)
        seen;
      add cover;
      (* Recompute vertex presence from the assignment into a (vertex,
         partition) bitset of its own, 63 partitions per word, and
         compare the routing table and the local vertex tables against
         it. One walk over each vertex's words yields both its replica
         count (popcount) and, bit by bit, the local table sizes, so the
         cost is O(m + n * words + replicas), not O(n * P). *)
      let words = Metrics.presence_words p_count in
      let bits = Array.make (n * words) 0 in
      let present v p = bits.((v * words) + (p / 63)) land (1 lsl (p mod 63)) <> 0 in
      let mark v p =
        let w = (v * words) + (p / 63) in
        bits.(w) <- bits.(w) lor (1 lsl (p mod 63))
      in
      let src = Graph.src_array g and dst = Graph.dst_array g in
      Array.iteri
        (fun e p ->
          mark src.(e) p;
          mark dst.(e) p)
        t.assignment;
      let local_expect = Array.make p_count 0 in
      let routes = reporter "replicas" in
      let total = ref 0 in
      for v = 0 to n - 1 do
        let reps = t.replicas v in
        total := !total + Array.length reps;
        let sorted = ref true in
        Array.iteri (fun i p -> if i > 0 && reps.(i - 1) >= p then sorted := false) reps;
        if not !sorted then
          report routes "vertex %d: replica list [%s] is not strictly ascending" v
            (String.concat "; " (Array.to_list (Array.map string_of_int reps)));
        Array.iter
          (fun p ->
            if p < 0 || p >= p_count then
              report routes "vertex %d: replica partition %d outside [0, %d)" v p p_count
            else if not (present v p) then
              report routes "vertex %d: routed to partition %d which holds none of its edges" v p)
          reps;
        let expect = ref 0 in
        for w = 0 to words - 1 do
          let word = bits.((v * words) + w) in
          expect := !expect + Metrics.popcount word;
          (* Peel the set bits lowest first; the partition of a lone bit
             [low] is [w * 63] plus the count of the bits below it. *)
          let rest = ref word in
          while !rest <> 0 do
            let low = !rest land (- !rest) in
            let p = (w * 63) + Metrics.popcount (low - 1) in
            local_expect.(p) <- local_expect.(p) + 1;
            rest := !rest lxor low
          done
        done;
        if !sorted && Array.length reps <> !expect then
          report routes "vertex %d: %d replicas routed, %d partitions hold its edges" v
            (Array.length reps) !expect
      done;
      add routes;
      if !total <> t.total_replicas then
        acc :=
          !acc
          @ [
              Violation.v ~suite ~rule:"total-replicas"
                "total_replicas = %d but per-vertex replica lists sum to %d" t.total_replicas
                !total;
            ];
      (* GraphX's identity-hash VertexRDD: master v = v mod P. *)
      let masters = reporter "master-identity" in
      for v = 0 to n - 1 do
        if t.master v <> v mod p_count then
          report masters "master of vertex %d is %d, expected %d mod %d = %d" v (t.master v) v
            p_count (v mod p_count)
      done;
      add masters;
      (* Local vertex-table sizes match the presence relation. *)
      let locals = reporter "local-vertices" in
      for p = 0 to p_count - 1 do
        if t.local_vertices p <> local_expect.(p) then
          report locals "partition %d: local vertex table has %d entries, expected %d" p
            (t.local_vertices p) local_expect.(p)
      done;
      add locals;
      !acc

let validate pg = validate_view (view_of_pgraph pg)
