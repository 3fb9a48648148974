let weak g =
  let n = Graph.num_vertices g in
  let uf = Union_find.create n in
  Graph.iter_edges g (fun ~src ~dst -> ignore (Union_find.union uf src dst));
  (* Relabel every component by its smallest member so labels are stable. *)
  let label = Array.make n max_int in
  for v = 0 to n - 1 do
    let r = Union_find.find uf v in
    if v < label.(r) then label.(r) <- v
  done;
  let out = Array.make n 0 in
  for v = 0 to n - 1 do
    out.(v) <- label.(Union_find.find uf v)
  done;
  (out, Union_find.count uf)

let weak_count g = snd (weak g)
