type t = {
  n : int;
  src : int array;
  dst : int array;
  out_off : int array;
  out_adj : int array;
  in_off : int array;
  in_adj : int array;
}

(* Buckets up to this length are sorted in place by insertion sort;
   longer ones (hubs) are merge-sorted with [Int.compare], which beats
   [Array.sort]'s heap sort on them. *)
let insertion_max = 24

let sort_bucket (adj : int array) lo hi =
  if hi - lo <= insertion_max then
    for i = lo + 1 to hi - 1 do
      let x = adj.(i) in
      let j = ref (i - 1) in
      while !j >= lo && adj.(!j) > x do
        adj.(!j + 1) <- adj.(!j);
        decr j
      done;
      adj.(!j + 1) <- x
    done
  else begin
    let slice = Array.sub adj lo (hi - lo) in
    Array.stable_sort Int.compare slice;
    Array.blit slice 0 adj lo (hi - lo)
  end

(* Build one direction of CSR adjacency with a counting sort, then sort
   each bucket so membership tests can binary-search. *)
let build_csr n keys values =
  let m = Array.length keys in
  let off = Array.make (n + 1) 0 in
  for i = 0 to m - 1 do
    off.(keys.(i) + 1) <- off.(keys.(i) + 1) + 1
  done;
  for v = 1 to n do
    off.(v) <- off.(v) + off.(v - 1)
  done;
  let adj = Array.make m 0 in
  let cursor = Array.copy off in
  for i = 0 to m - 1 do
    let k = keys.(i) in
    adj.(cursor.(k)) <- values.(i);
    cursor.(k) <- cursor.(k) + 1
  done;
  for v = 0 to n - 1 do
    sort_bucket adj off.(v) off.(v + 1)
  done;
  (off, adj)

let create ~n ~src ~dst =
  if Array.length src <> Array.length dst then
    invalid_arg "Graph.create: src/dst length mismatch";
  if n < 0 then invalid_arg "Graph.create: negative vertex count";
  Array.iter (fun v -> if v < 0 || v >= n then invalid_arg "Graph.create: src out of range") src;
  Array.iter (fun v -> if v < 0 || v >= n then invalid_arg "Graph.create: dst out of range") dst;
  let out_off, out_adj = build_csr n src dst in
  let in_off, in_adj = build_csr n dst src in
  { n; src; dst; out_off; out_adj; in_off; in_adj }

let of_edge_list ~n el =
  let src, dst = Edge_list.to_arrays el in
  create ~n ~src ~dst

let num_vertices t = t.n
let num_edges t = Array.length t.src
let edge_src t i = t.src.(i)
let edge_dst t i = t.dst.(i)
let src_array t = t.src
let dst_array t = t.dst
let out_csr t = (t.out_off, t.out_adj)
let in_csr t = (t.in_off, t.in_adj)
let out_degree t v = t.out_off.(v + 1) - t.out_off.(v)
let in_degree t v = t.in_off.(v + 1) - t.in_off.(v)
let degree_sum t ~lo ~hi = t.out_off.(hi) - t.out_off.(lo) + t.in_off.(hi) - t.in_off.(lo)

let iter_out t v f =
  for i = t.out_off.(v) to t.out_off.(v + 1) - 1 do
    f t.out_adj.(i)
  done

let iter_in t v f =
  for i = t.in_off.(v) to t.in_off.(v + 1) - 1 do
    f t.in_adj.(i)
  done

let out_neighbors t v = Array.sub t.out_adj t.out_off.(v) (out_degree t v)

let has_edge t ~src ~dst =
  let lo = ref t.out_off.(src) and hi = ref (t.out_off.(src + 1) - 1) in
  let found = ref false in
  while (not !found) && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let x = t.out_adj.(mid) in
    if x = dst then found := true else if x < dst then lo := mid + 1 else hi := mid - 1
  done;
  !found

let edge_multiplicity t ~src ~dst =
  (* Lower bound of [dst] in src's sorted out-list, then count the run. *)
  let lo = ref t.out_off.(src) and hi = ref t.out_off.(src + 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.out_adj.(mid) < dst then lo := mid + 1 else hi := mid
  done;
  let i = ref !lo and last = t.out_off.(src + 1) in
  while !i < last && t.out_adj.(!i) = dst do
    incr i
  done;
  !i - !lo

let iter_edges t f =
  for i = 0 to num_edges t - 1 do
    f ~src:t.src.(i) ~dst:t.dst.(i)
  done

(* Merge v's sorted out- and in-lists, dropping duplicates, v itself and
   every id below [lo]. The union is written into [adj] from [pos] when
   [write] holds; either way the end position is returned. *)
let merge_neighbours t v ~lo ~write adj pos =
  let a = ref t.out_off.(v) and a_end = t.out_off.(v + 1) in
  let b = ref t.in_off.(v) and b_end = t.in_off.(v + 1) in
  while !a < a_end && t.out_adj.(!a) < lo do
    incr a
  done;
  while !b < b_end && t.in_adj.(!b) < lo do
    incr b
  done;
  let pos = ref pos and last = ref (-1) in
  while !a < a_end || !b < b_end do
    let x =
      if !b >= b_end || (!a < a_end && t.out_adj.(!a) <= t.in_adj.(!b)) then begin
        let x = t.out_adj.(!a) in
        incr a;
        x
      end
      else begin
        let x = t.in_adj.(!b) in
        incr b;
        x
      end
    in
    if x <> !last && x <> v then begin
      if write then adj.(!pos) <- x;
      incr pos;
      last := x
    end
  done;
  !pos

(* Vertex by vertex, the undirected edges come out in ascending (src,
   dst) order, so [dst] is the adjacency itself; being symmetric, the
   in-direction shares the out-direction's arrays. *)
let symmetrize t =
  let n = t.n in
  let off = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    off.(v + 1) <- merge_neighbours t v ~lo:0 ~write:false [||] off.(v)
  done;
  let adj = Array.make off.(n) 0 and src = Array.make off.(n) 0 in
  for v = 0 to n - 1 do
    ignore (merge_neighbours t v ~lo:0 ~write:true adj off.(v));
    Array.fill src off.(v) (off.(v + 1) - off.(v)) v
  done;
  { n; src; dst = adj; out_off = off; out_adj = adj; in_off = off; in_adj = adj }

(* One pass into an m-word buffer, then trimmed: each edge adds at most
   one entry, to its lower endpoint's list. *)
let upper_neighbours t =
  let n = t.n in
  let off = Array.make (n + 1) 0 in
  let buf = Array.make (num_edges t) 0 in
  for v = 0 to n - 1 do
    off.(v + 1) <- merge_neighbours t v ~lo:(v + 1) ~write:true buf off.(v)
  done;
  (off, Array.sub buf 0 off.(n))
