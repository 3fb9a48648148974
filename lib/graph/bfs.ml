(* Hop distances from [src]; unreachable vertices get [max_int]. *)
let distances ?(undirected = false) g src =
  let n = Graph.num_vertices g in
  if src < 0 || src >= n then invalid_arg "Bfs: source out of range";
  let dist = Array.make n max_int in
  let queue = Queue.create () in
  dist.(src) <- 0;
  Queue.push src queue;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    let d = dist.(v) in
    let visit u =
      if dist.(u) = max_int then begin
        dist.(u) <- d + 1;
        Queue.push u queue
      end
    in
    Graph.iter_out g v visit;
    if undirected then Graph.iter_in g v visit
  done;
  dist

let farthest ?undirected g v =
  let dist = distances ?undirected g v in
  let best = ref v and best_d = ref 0 in
  Array.iteri
    (fun u d ->
      if d <> max_int && d > !best_d then begin
        best := u;
        best_d := d
      end)
    dist;
  (!best, !best_d)

let eccentricity ?undirected g v = snd (farthest ?undirected g v)
