module Graph = Cutfit_graph.Graph
module Splitmix64 = Cutfit_prng.Splitmix64

type t =
  | Hash of Strategy.t
  | Stream of Streaming.t
  | Incremental of Streaming.t
  | Custom of string * (num_partitions:int -> Graph.t -> int array)

let paper_six = List.map (fun s -> Hash s) Strategy.all
let streaming_baselines =
  [ Stream Streaming.Dbh; Stream Streaming.Greedy; Stream (Streaming.Hdrf 1.0);
    Stream (Streaming.Hybrid 100) ]

let name = function
  | Hash s -> Strategy.to_string s
  | Stream s -> Streaming.to_string s
  | Incremental s -> "inc-" ^ Streaming.to_string s
  | Custom (n, _) -> n

(* "inc-<heuristic>" selects the incremental wrapper: cold-start
   identical to the wrapped streaming heuristic, but declaring that
   mutation deltas should be repaired in place by
   [Cutfit_dynamic.Incremental.refresh] rather than re-streamed. *)
let of_string s =
  match Strategy.of_string s with
  | Some st -> Some (Hash st)
  | None -> (
      match Streaming.of_string s with
      | Some st -> Some (Stream st)
      | None ->
          let prefix = "inc-" in
          let plen = String.length prefix in
          if String.length s > plen && String.equal (String.lowercase_ascii (String.sub s 0 plen)) prefix
          then
            match Streaming.of_string (String.sub s plen (String.length s - plen)) with
            | Some st -> Some (Incremental st)
            | None -> None
          else None)

(* Capability-aware placement for heterogeneous clusters: each
   partition's capacity is weighted by the speed of its home executor
   (the standard [p mod executors] mapping), and every edge lands in the
   partition whose speed-weighted cumulative range covers its pair hash.
   Faster hosts therefore receive proportionally more edges while the
   partition -> executor mapping itself stays untouched. *)
let capability ~speeds ~executors =
  if executors <= 0 then invalid_arg "Partitioner.capability: executors <= 0";
  Array.iter
    (fun s -> if s <= 0.0 then invalid_arg "Partitioner.capability: speed <= 0")
    speeds;
  let speed e = if e < Array.length speeds then speeds.(e) else 1.0 in
  let assign ~num_partitions g =
    let cum = Array.make (num_partitions + 1) 0.0 in
    for p = 0 to num_partitions - 1 do
      cum.(p + 1) <- cum.(p) +. speed (p mod executors)
    done;
    let total = cum.(num_partitions) in
    let m = Graph.num_edges g in
    let out = Array.make m 0 in
    (* The pair hash and the range search stay inline, on an int and
       unboxed float locals: a float crossing a call would be boxed
       once per edge. *)
    for i = 0 to m - 1 do
      let bits =
        Splitmix64.draw_bits53 ~seed:(Graph.edge_src g i) ~salt:(Graph.edge_dst g i + 1)
          ~k:Splitmix64.finalizer_key
      in
      let target = float_of_int bits /. 9007199254740992.0 *. total in
      let lo = ref 0 and hi = ref num_partitions in
      (* invariant: cum.(lo) <= target < cum.(hi) except at the edges *)
      while !hi - !lo > 1 do
        let mid = (!lo + !hi) / 2 in
        if cum.(mid) <= target then lo := mid else hi := mid
      done;
      out.(i) <- !lo
    done;
    out
  in
  Custom ("capability", assign)

let assign t ~num_partitions g =
  if num_partitions <= 0 then invalid_arg "Partitioner.assign: num_partitions <= 0";
  match t with
  | Hash strategy ->
      let place = Strategy.edge_partition strategy ~num_partitions in
      let src = Graph.src_array g and dst = Graph.dst_array g in
      let out = Array.make (Array.length src) 0 in
      for i = 0 to Array.length src - 1 do
        out.(i) <- place ~src:src.(i) ~dst:dst.(i)
      done;
      out
  | Stream s | Incremental s -> Streaming.assign s ~num_partitions g
  | Custom (_, f) ->
      let out = f ~num_partitions g in
      if Array.length out <> Graph.num_edges g then
        invalid_arg "Partitioner.assign: custom partitioner returned wrong length";
      Array.iter
        (fun p ->
          if p < 0 || p >= num_partitions then
            invalid_arg "Partitioner.assign: custom partition out of range")
        out;
      out
