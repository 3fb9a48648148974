module Pgraph = Cutfit_bsp.Pgraph
module Trace = Cutfit_bsp.Trace

type key = { graph : string; strategy : string; num_partitions : int }

let key_id k = Printf.sprintf "%s/%s/%d" k.graph k.strategy k.num_partitions

type eviction = Lru | Cost_aware

let eviction_name = function Lru -> "lru" | Cost_aware -> "cost"

let eviction_of_string s =
  match String.lowercase_ascii s with
  | "lru" -> Some Lru
  | "cost" | "cost-aware" -> Some Cost_aware
  | _ -> None

type stats = {
  budget_bytes : float;
  lookups : int;
  hits : int;
  misses : int;
  insertions : int;
  evictions : int;
  invalidations : int;
  rejections : int;
  bytes_inserted : float;
  bytes_evicted : float;
  bytes_invalidated : float;
  bytes_in_cache : float;
  entries : int;
}

type entry = {
  ekey : key;
  pg : Pgraph.t;
  bytes : float;
  rebuild_s : float;
  available_s : float;
  mutable last_use : int;  (** logical tick of the last hit (or the insert) *)
  seq : int;  (** insertion order, the deterministic tiebreak *)
  mutable traces : (string * Trace.t) list;  (** by algorithm name, runs priced on [pg] *)
}

type t = {
  eviction : eviction;
  budget : float;
  table : (string, entry) Hashtbl.t;
  mutable tick : int;
  mutable next_seq : int;
  mutable occupancy : float;
  mutable lookups : int;
  mutable hits : int;
  mutable misses : int;
  mutable insertions : int;
  mutable evictions : int;
  mutable invalidations : int;
  mutable rejections : int;
  mutable bytes_inserted : float;
  mutable bytes_evicted : float;
  mutable bytes_invalidated : float;
}

let create ?(eviction = Lru) ~budget_bytes () =
  {
    eviction;
    budget = budget_bytes;
    table = Hashtbl.create 64;
    tick = 0;
    next_seq = 0;
    occupancy = 0.0;
    lookups = 0;
    hits = 0;
    misses = 0;
    insertions = 0;
    evictions = 0;
    invalidations = 0;
    rejections = 0;
    bytes_inserted = 0.0;
    bytes_evicted = 0.0;
    bytes_invalidated = 0.0;
  }

let live_entry t ~at_s k =
  match Hashtbl.find_opt t.table (key_id k) with
  | Some e when e.available_s <= at_s -> Some e
  | Some _ | None -> None

let find t ~at_s k =
  t.lookups <- t.lookups + 1;
  match live_entry t ~at_s k with
  | Some e ->
      t.hits <- t.hits + 1;
      t.tick <- t.tick + 1;
      e.last_use <- t.tick;
      Some e.pg
  | None ->
      t.misses <- t.misses + 1;
      None

let mem t ~at_s k = Option.is_some (live_entry t ~at_s k)

(* Snapshot of the live entries in insertion order. The fold's visit
   order is unspecified, but the subsequent sort by [seq] (unique per
   entry) makes the result independent of it. *)
let entries_by_seq t =
  (* lint: order-independent *)
  let all = Hashtbl.fold (fun _ e acc -> e :: acc) t.table [] in
  List.sort (fun a b -> compare a.seq b.seq) all

let cached_strategies t ~at_s ~graph ~num_partitions =
  entries_by_seq t
  |> List.filter (fun e ->
         e.available_s <= at_s
         && String.equal e.ekey.graph graph
         && e.ekey.num_partitions = num_partitions)
  |> List.map (fun e -> e.ekey.strategy)

let remove_entry t e =
  Hashtbl.remove t.table (key_id e.ekey);
  t.occupancy <- t.occupancy -. e.bytes;
  t.evictions <- t.evictions + 1;
  t.bytes_evicted <- t.bytes_evicted +. e.bytes

(* Victim order: LRU by last touch; cost-aware by rebuild cost per byte
   (cheap-to-rebuild, byte-hungry entries go first). Both tie-break on
   insertion order, so eviction is deterministic. *)
let better_victim t a b =
  match t.eviction with
  | Lru -> if a.last_use <> b.last_use then a.last_use < b.last_use else a.seq < b.seq
  | Cost_aware ->
      let score e = e.rebuild_s /. Float.max e.bytes 1.0 in
      let sa = score a and sb = score b in
      if sa <> sb then sa < sb else a.seq < b.seq

let pick_victim t =
  match entries_by_seq t with
  | [] -> None
  | e :: rest -> Some (List.fold_left (fun v c -> if better_victim t c v then c else v) e rest)

let insert t ~available_s k ~pg ~bytes ~rebuild_s =
  if bytes > t.budget then (
    t.rejections <- t.rejections + 1;
    `Rejected)
  else begin
    let evicted = ref [] in
    (match Hashtbl.find_opt t.table (key_id k) with
    | Some old ->
        remove_entry t old;
        evicted := [ (old.ekey, old.bytes) ]
    | None -> ());
    while t.occupancy +. bytes > t.budget do
      match pick_victim t with
      | Some v ->
          remove_entry t v;
          evicted := (v.ekey, v.bytes) :: !evicted
      | None -> t.occupancy <- 0.0 (* unreachable: empty cache occupies nothing *)
    done;
    t.tick <- t.tick + 1;
    t.next_seq <- t.next_seq + 1;
    let e =
      {
        ekey = k;
        pg;
        bytes;
        rebuild_s;
        available_s;
        last_use = t.tick;
        seq = t.next_seq;
        traces = [];
      }
    in
    Hashtbl.replace t.table (key_id k) e;
    t.occupancy <- t.occupancy +. bytes;
    t.insertions <- t.insertions + 1;
    t.bytes_inserted <- t.bytes_inserted +. bytes;
    `Inserted (List.rev !evicted)
  end

(* Drop every live entry at once — the cluster restarted, so nothing a
   dead executor hosted can be reused. Counted separately from eviction
   pressure so the conservation laws can tell the two apart. *)
let invalidate t ~pred =
  let victims = List.filter (fun e -> pred e.ekey) (entries_by_seq t) in
  List.map
    (fun e ->
      Hashtbl.remove t.table (key_id e.ekey);
      t.occupancy <- t.occupancy -. e.bytes;
      t.invalidations <- t.invalidations + 1;
      t.bytes_invalidated <- t.bytes_invalidated +. e.bytes;
      (e.ekey, e.bytes))
    victims

let peek_entries t ~pred =
  List.filter_map (fun e -> if pred e.ekey then Some (e.ekey, e.pg) else None) (entries_by_seq t)

(* The entry for [k] when it holds [pg] itself: a replaced, evicted or
   invalidated entry is a different (or no) entry, so its traces are
   gone with it. *)
let entry_of t k ~pg =
  match Hashtbl.find_opt t.table (key_id k) with
  | Some e when e.pg == pg -> Some e
  | Some _ | None -> None

let find_trace t k ~pg algorithm =
  Option.bind (entry_of t k ~pg) (fun e ->
      List.find_map
        (fun (a, trace) -> if String.equal a algorithm then Some trace else None)
        e.traces)

let store_trace t k ~pg algorithm trace =
  match entry_of t k ~pg with
  | Some e ->
      let others = List.filter (fun (a, _) -> not (String.equal a algorithm)) e.traces in
      e.traces <- (algorithm, trace) :: others
  | None -> ()

let stats t =
  let live = entries_by_seq t in
  let bytes_in_cache = List.fold_left (fun acc e -> acc +. e.bytes) 0.0 live in
  {
    budget_bytes = t.budget;
    lookups = t.lookups;
    hits = t.hits;
    misses = t.misses;
    insertions = t.insertions;
    evictions = t.evictions;
    invalidations = t.invalidations;
    rejections = t.rejections;
    bytes_inserted = t.bytes_inserted;
    bytes_evicted = t.bytes_evicted;
    bytes_invalidated = t.bytes_invalidated;
    bytes_in_cache;
    entries = List.length live;
  }
