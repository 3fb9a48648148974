module Graph = Cutfit_graph.Graph
module Splitmix64 = Cutfit_prng.Splitmix64

module Spec_error = Cutfit_bsp.Spec_error

type kind = Ins | Del

type item = { kind : kind; from_batch : int; to_batch : int; edges : int }

type config = { items : item list; seed : int }

let dsl = "mutations"
let fail ~item fmt = Spec_error.fail ~dsl ~item fmt

let parse_item part =
  let kind, head, opts = Spec_error.kind_args ~dsl part in
  let kind =
    match String.lowercase_ascii kind with
    | "ins" -> Ins
    | "del" -> Del
    | other -> fail ~item:part "unknown mutation kind %S (want ins or del)" other
  in
  let o = Spec_error.options ~dsl ~item:part ~allowed:"r" opts in
  let edges = Option.fold ~none:32 ~some:(Spec_error.count ~dsl ~item:part) (o 'r') in
  let from_batch, to_batch = Spec_error.window ~dsl ~item:part head in
  if from_batch < 1 then fail ~item:part "batches are numbered from 1 (got %d)" from_batch;
  if edges < 1 then fail ~item:part "edge count must be >= 1 (got %d)" edges;
  { kind; from_batch; to_batch; edges }

let parse_spec raw = Spec_error.list ~dsl ~what:"mutations" parse_item raw

(* Canonical inverse of {!parse_spec}: the default edge count (r32) and
   single-batch windows print in their shortest form, so
   [parse_spec (to_spec items) = items]. *)
let item_to_spec it =
  Printf.sprintf "%s@%s%s"
    (match it.kind with Ins -> "ins" | Del -> "del")
    (Spec_error.window_lit it.from_batch it.to_batch)
    (if it.edges = 32 then "" else Printf.sprintf ":r%d" it.edges)

let to_spec items = String.concat "," (List.map item_to_spec items)

let describe cfg = Printf.sprintf "%s (seed %d)" (to_spec cfg.items) cfg.seed

let covers batch it = it.from_batch <= batch && batch <= it.to_batch

(* Items covering the same batch pool their edge counts, so the draws
   below stay keyed purely by (seed, batch, i) whatever the spec's
   decomposition into items. A pool past the parser's ceiling is
   refused, naming the item that passes it. *)
let batch_counts cfg ~batch =
  let pool total it =
    let total = total + it.edges in
    if total > Spec_error.max_count then
      fail ~item:(item_to_spec it) "batch %d pools %d edges, above the ceiling of %d" batch total
        Spec_error.max_count;
    total
  in
  List.fold_left
    (fun (ins, del) it ->
      if covers batch it then
        match it.kind with Ins -> (pool ins it, del) | Del -> (ins, pool del it)
      else (ins, del))
    (0, 0) cfg.items

(* A batch's pool only gains items where one starts, so checking each
   item's first batch checks them all. *)
let config ?(seed = 42) raw =
  let cfg = { items = parse_spec raw; seed } in
  List.iter (fun it -> ignore (batch_counts cfg ~batch:it.from_batch)) cfg.items;
  cfg

let max_batch cfg = List.fold_left (fun acc it -> max acc it.to_batch) 1 cfg.items

type delta = {
  batch : int;
  inserts : (int * int) array;  (** (src, dst) pairs appended in draw order *)
  deletes : int array;  (** pre-delta edge ids, strictly ascending *)
}

let is_empty d = Array.length d.inserts = 0 && Array.length d.deletes = 0

(* Every edge of every batch is a keyed draw ([Splitmix64.draw]), a
   pure function of (seed, batch, i), so a batch can be regenerated
   independently of any PRNG call history. Inserts use salt 2*batch,
   deletes 2*batch+1. *)
let plan cfg ~batch g =
  if batch < 1 then invalid_arg "Mutation.plan: batch < 1";
  let n = Graph.num_vertices g in
  let m = Graph.num_edges g in
  let ins_count, del_count = batch_counts cfg ~batch in
  let inserts =
    if n < 2 then [||] (* too small to host a non-loop edge *)
    else
      Array.init ins_count (fun i ->
          let draw k = Splitmix64.draw_mod (Splitmix64.draw ~seed:cfg.seed ~salt:(2 * batch) ~k) n in
          let src = draw (2 * i) and dst = draw ((2 * i) + 1) in
          let dst = if dst = src then (dst + 1) mod n else dst in
          (src, dst))
  in
  let del_count = min del_count m in
  (* Distinct victims by linear probing over the edge ids: at most
     del_count <= m ids are ever taken, so the probe always finds a
     free one. The taken ids live in a table sized by the delta. *)
  let taken = Hashtbl.create (2 * del_count) in
  let deletes =
    Array.init del_count (fun i ->
        let h = Splitmix64.draw ~seed:cfg.seed ~salt:((2 * batch) + 1) ~k:i in
        let e = ref (Splitmix64.draw_mod h m) in
        while Hashtbl.mem taken !e do
          e := (!e + 1) mod m
        done;
        Hashtbl.add taken !e ();
        !e)
  in
  Array.sort Int.compare deletes;
  { batch; inserts; deletes }

type applied = { delta : delta; before : Graph.t; graph : Graph.t; kept : int array }

(* The survivors, by a merge of the edge ids against the ascending
   deletes. *)
let kept g d =
  let m = Graph.num_edges g and dels = d.deletes in
  let nd = Array.length dels in
  Array.iteri
    (fun j e ->
      if e < 0 || e >= m then invalid_arg "Mutation: delete edge id out of range";
      if j > 0 && e <= dels.(j - 1) then invalid_arg "Mutation: deletes not strictly ascending")
    dels;
  let keep = Array.make (m - nd) 0 in
  let j = ref 0 and next = ref 0 in
  for e = 0 to m - 1 do
    if !next < nd && dels.(!next) = e then incr next
    else begin
      keep.(!j) <- e;
      incr j
    end
  done;
  keep

(* [Graph.splice] checks the inserted endpoints. *)
let apply g d =
  let keep = kept g d in
  let k = Array.length keep and extra = Array.length d.inserts in
  let src = Array.make (k + extra) 0 and dst = Array.make (k + extra) 0 in
  Array.iteri
    (fun j e ->
      src.(j) <- Graph.edge_src g e;
      dst.(j) <- Graph.edge_dst g e)
    keep;
  Array.iteri
    (fun i (s, t) ->
      src.(k + i) <- s;
      dst.(k + i) <- t)
    d.inserts;
  { delta = d; before = g; graph = Graph.splice g ~deletes:d.deletes ~src ~dst; kept = keep }
