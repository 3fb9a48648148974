(* Forward count in vertex-id order over the upper-neighbour view
   (each vertex's distinct undirected neighbours above it): for u
   ascending, stamp up(u) with u in a mark array, then each x in up(v),
   for v in up(u), that carries u's stamp closes the triangle u < v < x.
   Every distinct triangle is found exactly once, whatever the edge
   directions, parallel copies or self-loops. *)
let count_view n (off, up) =
  let mark = Array.make n (-1) in
  let total = ref 0 in
  for u = 0 to n - 1 do
    for i = off.(u) to off.(u + 1) - 1 do
      mark.(up.(i)) <- u
    done;
    for i = off.(u) to off.(u + 1) - 1 do
      let v = up.(i) in
      for j = off.(v) to off.(v + 1) - 1 do
        if mark.(up.(j)) = u then incr total
      done
    done
  done;
  !total

let count g = count_view (Graph.num_vertices g) (Graph.upper_neighbours g)

let global_clustering g =
  let n = Graph.num_vertices g in
  let ((off, up) as view) = Graph.upper_neighbours g in
  (* A vertex's undirected degree: its neighbours above it plus the
     vertices that list it above them. *)
  let degree = Array.init n (fun v -> off.(v + 1) - off.(v)) in
  Array.iter (fun v -> degree.(v) <- degree.(v) + 1) up;
  let wedges = ref 0.0 in
  for v = 0 to n - 1 do
    let d = float_of_int degree.(v) in
    wedges := !wedges +. (d *. (d -. 1.0) /. 2.0)
  done;
  if !wedges = 0.0 then 0.0 else 3.0 *. float_of_int (count_view n view) /. !wedges
