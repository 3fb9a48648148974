module Graph = Cutfit_graph.Graph
module Splitmix64 = Cutfit_prng.Splitmix64

type t = Dbh | Greedy | Hdrf of float | Hybrid of int

let to_string = function
  | Dbh -> "DBH"
  | Greedy -> "Greedy"
  | Hdrf lambda -> Printf.sprintf "HDRF(%.2g)" lambda
  | Hybrid threshold -> Printf.sprintf "Hybrid(%d)" threshold

let of_string s =
  match String.lowercase_ascii s with
  | "dbh" -> Some Dbh
  | "greedy" -> Some Greedy
  | "hdrf" -> Some (Hdrf 1.0)
  | "hybrid" -> Some (Hybrid 100)
  | _ -> None

(* Shared streaming state: which partitions each vertex already touches
   and how loaded each partition is. Replica lists stay tiny (bounded by
   the replication factor), so linear scans beat sets here. *)
type live = {
  replicas : int list array;  (* vertex -> partitions seen so far *)
  load : int array;  (* partition -> edges placed *)
  degree : int array;  (* running (streamed) degree per vertex *)
}

let live_create ~n ~num_partitions =
  if num_partitions <= 0 then invalid_arg "Streaming.live_create: num_partitions <= 0";
  { replicas = Array.make n []; load = Array.make num_partitions 0; degree = Array.make n 0 }

let place st v p = if not (List.mem p st.replicas.(v)) then st.replicas.(v) <- p :: st.replicas.(v)

let live_add_load st p = st.load.(p) <- st.load.(p) + 1

let live_record st ~src ~dst p =
  place st src p;
  place st dst p;
  live_add_load st p;
  st.degree.(src) <- st.degree.(src) + 1;
  st.degree.(dst) <- st.degree.(dst) + 1

(* The heuristics only ever consult the stream through this read-only
   view, and only at the endpoints of the edge they place and in the
   loads, so the same choice functions serve both the offline [assign]
   stream and the incremental repartitioner in [lib/dynamic], which
   reconstructs that much of the view from a cached cut. *)
type view = {
  v_replicas : int -> int list;
  v_load : int -> int;
  v_degree : int -> int;  (* streamed (partial) degree, for HDRF *)
  v_total_degree : int -> int;  (* full degree, for DBH's hash key *)
  v_in_degree : int -> int;  (* full in-degree, for Hybrid's hub test *)
}

let live_view g st =
  {
    v_replicas = (fun v -> st.replicas.(v));
    v_load = (fun p -> st.load.(p));
    v_degree = (fun v -> st.degree.(v));
    v_total_degree = (fun v -> Graph.out_degree g v + Graph.in_degree g v);
    v_in_degree = (fun v -> Graph.in_degree g v);
  }

let has_replica vw v p = List.mem p (vw.v_replicas v)

let least_loaded vw candidates =
  match candidates with
  | [] -> invalid_arg "Streaming.least_loaded: no candidates"
  | first :: rest ->
      List.fold_left (fun best p -> if vw.v_load p < vw.v_load best then p else best) first rest

let intersect a b = List.filter (fun p -> List.mem p b) a

let greedy_choice vw ~src ~dst ~num_partitions =
  (* PowerGraph's rules: both endpoints share a partition -> use it;
     one endpoint placed -> follow it; otherwise least loaded overall. *)
  let rs = vw.v_replicas src and rd = vw.v_replicas dst in
  match (rs, rd) with
  | [], [] -> least_loaded vw (List.init num_partitions Fun.id)
  | [], _ -> least_loaded vw rd
  | _, [] -> least_loaded vw rs
  | _, _ -> (
      match intersect rs rd with
      | [] -> least_loaded vw (rs @ rd)
      | common -> least_loaded vw common)

let hdrf_choice vw ~lambda ~src ~dst ~num_partitions =
  (* Petroni et al. (2015): score(p) = C_rep(p) + lambda * C_bal(p).
     The replication term prefers partitions already holding the
     endpoint with the lower partial degree, so high-degree vertices
     get replicated first. *)
  let d_src = float_of_int (vw.v_degree src + 1) and d_dst = float_of_int (vw.v_degree dst + 1) in
  let theta_src = d_src /. (d_src +. d_dst) in
  let theta_dst = 1.0 -. theta_src in
  let max_load = ref 0 and min_load = ref max_int in
  for p = 0 to num_partitions - 1 do
    let l = vw.v_load p in
    if l > !max_load then max_load := l;
    if l < !min_load then min_load := l
  done;
  let max_load = !max_load and min_load = !min_load in
  let spread = float_of_int (max_load - min_load) +. 1.0 in
  let score p =
    let g v theta = if has_replica vw v p then 1.0 +. (1.0 -. theta) else 0.0 in
    let c_rep = g src theta_src +. g dst theta_dst in
    let c_bal = lambda *. (float_of_int (max_load - vw.v_load p) /. spread) in
    c_rep +. c_bal
  in
  let best = ref 0 and best_score = ref neg_infinity in
  for p = 0 to num_partitions - 1 do
    let s = score p in
    if s > !best_score then begin
      best := p;
      best_score := s
    end
  done;
  !best

let choose t vw ~num_partitions ~src ~dst =
  match t with
  | Hybrid threshold ->
      (* PowerLyra's hybrid-cut: edges into a low-in-degree vertex are
         grouped by destination (locality for the many cheap vertices);
         edges into high-in-degree hubs are spread by source so no
         single partition absorbs a hub's whole in-neighbourhood. *)
      let key = if vw.v_in_degree dst <= threshold then dst else src in
      Hashing.hash1 key ~num_partitions
  | Dbh ->
      let key = if vw.v_total_degree src <= vw.v_total_degree dst then src else dst in
      Hashing.hash1 key ~num_partitions
  | Greedy -> greedy_choice vw ~src ~dst ~num_partitions
  | Hdrf lambda -> hdrf_choice vw ~lambda ~src ~dst ~num_partitions

(* Seeded Fisher-Yates over edge indices; the output assignment stays
   indexed by original edge id whatever order the stream visits them. *)
let permutation ~seed m =
  let perm = Array.init m Fun.id in
  let rng = Splitmix64.create seed in
  for i = m - 1 downto 1 do
    let j = Splitmix64.next_int rng (i + 1) in
    let tmp = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- tmp
  done;
  perm

let assign ?order t ~num_partitions g =
  if num_partitions <= 0 then invalid_arg "Streaming.assign: num_partitions <= 0";
  let n = Graph.num_vertices g and m = Graph.num_edges g in
  let st = live_create ~n ~num_partitions in
  let vw = live_view g st in
  let stateful = match t with Greedy | Hdrf _ -> true | Dbh | Hybrid _ -> false in
  let out = Array.make m 0 in
  let step i =
    let src = Graph.edge_src g i and dst = Graph.edge_dst g i in
    let p = choose t vw ~num_partitions ~src ~dst in
    if stateful then live_record st ~src ~dst p;
    out.(i) <- p
  in
  (match order with
  | None ->
      for i = 0 to m - 1 do
        step i
      done
  | Some seed -> Array.iter step (permutation ~seed m));
  out
