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

let by_key_value (a, b) (c, d) = if a <> c then Int.compare a c else Int.compare b d

(* One direction of [splice]. [dels] and [ins] are the delta's edges
   as (key, value) pairs in ascending order. A bucket no delta edge
   keys is copied in a run with its neighbours, its offsets shifted by
   the inserts minus the deletes keyed below it; a touched bucket is a
   merge of its old sorted values, less one copy per delete, with its
   inserts. *)
let splice_csr n (off, adj) ~dels ~ins =
  let nd = Array.length dels and ni = Array.length ins in
  let off' = Array.make (n + 1) 0 and adj' = Array.make (off.(n) - nd + ni) 0 in
  let shift = ref 0 and d = ref 0 and i = ref 0 in
  let copy_run lo hi =
    for v = lo to hi - 1 do
      off'.(v) <- off.(v) + !shift
    done;
    Array.blit adj off.(lo) adj' (off.(lo) + !shift) (off.(hi) - off.(lo))
  in
  let next = ref 0 in
  while !d < nd || !i < ni do
    let v =
      if !i >= ni || (!d < nd && fst dels.(!d) <= fst ins.(!i)) then fst dels.(!d)
      else fst ins.(!i)
    in
    copy_run !next v;
    off'.(v) <- off.(v) + !shift;
    let a = ref off.(v) and a_end = off.(v + 1) and out = ref off'.(v) in
    let emit x =
      adj'.(!out) <- x;
      incr out
    in
    let del_here () = !d < nd && fst dels.(!d) = v in
    let ins_here () = !i < ni && fst ins.(!i) = v in
    while !a < a_end || ins_here () do
      if !a < a_end && del_here () && adj.(!a) = snd dels.(!d) then begin
        incr a;
        incr d;
        decr shift
      end
      else if !a < a_end && not (ins_here () && snd ins.(!i) < adj.(!a)) then begin
        emit adj.(!a);
        incr a
      end
      else begin
        emit (snd ins.(!i));
        incr i;
        incr shift
      end
    done;
    if del_here () then invalid_arg "Graph.splice: deleted edge not in its bucket";
    next := v + 1
  done;
  copy_run !next n;
  off'.(n) <- off.(n) + !shift;
  (off', adj')

let splice t ~deletes ~src ~dst =
  let m = Array.length t.src and nd = Array.length deletes in
  if Array.length src <> Array.length dst then invalid_arg "Graph.splice: src/dst length mismatch";
  if Array.length src < m - nd then invalid_arg "Graph.splice: fewer edges than the kept ones";
  Array.iteri
    (fun j e ->
      if e < 0 || e >= m || (j > 0 && e <= deletes.(j - 1)) then
        invalid_arg "Graph.splice: deletes not ascending edge ids")
    deletes;
  let k = m - nd in
  let ins_out = Array.init (Array.length src - k) (fun j -> (src.(k + j), dst.(k + j))) in
  Array.iter
    (fun (s, d) ->
      if s < 0 || s >= t.n || d < 0 || d >= t.n then
        invalid_arg "Graph.splice: endpoint out of range")
    ins_out;
  let del_out = Array.map (fun e -> (t.src.(e), t.dst.(e))) deletes in
  let swap = Array.map (fun (s, d) -> (d, s)) in
  let del_in = swap del_out and ins_in = swap ins_out in
  let sorted a =
    Array.sort by_key_value a;
    a
  in
  let out_off, out_adj =
    splice_csr t.n (t.out_off, t.out_adj) ~dels:(sorted del_out) ~ins:(sorted ins_out)
  in
  let in_off, in_adj =
    splice_csr t.n (t.in_off, t.in_adj) ~dels:(sorted del_in) ~ins:(sorted ins_in)
  in
  { n = t.n; src; dst; out_off; out_adj; in_off; in_adj }

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
