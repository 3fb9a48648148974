(* Degree-ordered triangle enumeration: orient each undirected edge from
   its lower-ranked endpoint to the higher-ranked one (rank = (degree,
   id)), then intersect the oriented adjacency of each edge's endpoints.
   O(m^{3/2}) worst case, much faster on power-law graphs. *)

let oriented g =
  let und = Graph.symmetrize g in
  let n = Graph.num_vertices und in
  let rank u v =
    let du = Graph.out_degree und u and dv = Graph.out_degree und v in
    du < dv || (du = dv && u < v)
  in
  let counts = Array.make n 0 in
  Graph.iter_edges und (fun ~src ~dst -> if rank src dst then counts.(src) <- counts.(src) + 1);
  let off = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    off.(v + 1) <- off.(v) + counts.(v)
  done;
  let adj = Array.make off.(n) 0 in
  let cursor = Array.copy off in
  (* [symmetrize]'s edges come in ascending (src, dst) order, so each
     oriented slice fills in ascending order and needs no sort. *)
  Graph.iter_edges und (fun ~src ~dst ->
      if rank src dst then begin
        adj.(cursor.(src)) <- dst;
        cursor.(src) <- cursor.(src) + 1
      end);
  (und, off, adj)

let fold_triangles g f =
  let und, off, adj = oriented g in
  let n = Graph.num_vertices und in
  for u = 0 to n - 1 do
    for i = off.(u) to off.(u + 1) - 1 do
      let v = adj.(i) in
      (* Merge-intersect adj+(u) and adj+(v); both slices are sorted. *)
      let a = ref off.(u) and b = ref off.(v) in
      while !a < off.(u + 1) && !b < off.(v + 1) do
        let x = adj.(!a) and y = adj.(!b) in
        if x = y then begin
          f u v x;
          incr a;
          incr b
        end
        else if x < y then incr a
        else incr b
      done
    done
  done

let count g =
  let total = ref 0 in
  fold_triangles g (fun _ _ _ -> incr total);
  !total

let global_clustering g =
  let und = Graph.symmetrize g in
  let n = Graph.num_vertices und in
  let wedges = ref 0.0 in
  for v = 0 to n - 1 do
    let d = float_of_int (Graph.out_degree und v) in
    wedges := !wedges +. (d *. (d -. 1.0) /. 2.0)
  done;
  if !wedges = 0.0 then 0.0 else 3.0 *. float_of_int (count g) /. !wedges
