module Graph = Cutfit_graph.Graph
module Pregel = Cutfit_bsp.Pregel

type result = { distances : int array array; trace : Cutfit_bsp.Trace.t }

let infinity_dist = max_int

(* Vertex [v]'s distance to landmark [i] lives at [v * k + i] of a
   flat n*k int array, and so do its partial and its accumulator, so a
   message builds no vector: GraphX ships the whole landmark map, and
   the charges price that ([msg_bytes]), but the combine is a pointwise
   [min] straight into the target's row. Slot i starts at 0 on landmark
   i, so a landmark listed twice starts both of its slots there; every
   other slot starts unreachable, which superstep 0's [min] with the
   all-unreachable initial message leaves in place. *)
let program ~n ~landmarks =
  let k = Array.length landmarks in
  let bytes = 96 + (64 * k) in
  let dist = Array.make (n * k) infinity_dist in
  Array.iteri (fun i l -> dist.((l * k) + i) <- 0) landmarks;
  let part = Array.make (n * k) 0 and acc = Array.make (n * k) 0 in
  (* The message from [dst] to [src] is [dst]'s row plus one hop; it is
     sent only when it improves on [src]'s row in some slot, so
     [static_emits] is false. *)
  let send ~src ~dst ~emit =
    let sb = src * k and db = dst * k in
    let i = ref 0 and improves = ref false in
    while (not !improves) && !i < k do
      let d = dist.(db + !i) in
      if d <> infinity_dist && d + 1 < dist.(sb + !i) then improves := true;
      incr i
    done;
    if !improves then
      if emit Pregel.To_src then
        for j = 0 to k - 1 do
          let d = dist.(db + j) in
          part.(sb + j) <- (if d = infinity_dist then d else d + 1)
        done
      else
        for j = 0 to k - 1 do
          let d = dist.(db + j) in
          let hop = if d = infinity_dist then d else d + 1 in
          if hop < part.(sb + j) then part.(sb + j) <- hop
        done
  in
  let flush v ~first =
    let b = v * k in
    if first then Array.blit part b acc b k
    else
      for j = b to b + k - 1 do
        if part.(j) < acc.(j) then acc.(j) <- part.(j)
      done
  in
  let apply v =
    for j = v * k to (v * k) + k - 1 do
      if acc.(j) < dist.(j) then dist.(j) <- acc.(j)
    done
  in
  ( { Pregel.send; flush; apply; static_emits = false; state_bytes = bytes; msg_bytes = bytes },
    dist )

let run ?(max_supersteps = 2000) ?scale ?cost ?what_if ?telemetry ~cluster ~landmarks pg =
  if Array.length landmarks = 0 then invalid_arg "Sssp.run: empty landmark set";
  let n = Graph.num_vertices (Cutfit_bsp.Pgraph.graph pg) in
  Array.iter
    (fun v -> if v < 0 || v >= n then invalid_arg "Sssp.run: landmark out of range")
    landmarks;
  let program, dist = program ~n ~landmarks in
  let trace =
    Pregel.run ~max_supersteps ?scale ?cost ?what_if ?telemetry ~cluster pg program
  in
  let k = Array.length landmarks in
  { distances = Array.init n (fun v -> Array.sub dist (v * k) k); trace }

(* --- compact CSR kernel -------------------------------------------

   The landmark-vector recurrence on the flat layout. Vertex state is a
   flattened n*k int matrix; each accumulator slot holds a k-vector in
   the (slot * k) row of a per-run buffer (the preallocated [iacc] is
   one int per slot, too small for a vector payload). The combiner is
   pointwise [min] — order-exact ints — so any domain count reproduces
   the boxed engine's distances bit-for-bit. A [shadow] is recorded as
   in [Pagerank.run_csr]. *)

module Csr = Cutfit_bsp.Csr
module Par_exec = Cutfit_bsp.Par_exec
module Ownership = Cutfit_bsp.Ownership
module B1 = Bigarray.Array1

let run_csr ?(max_supersteps = 2000) ?(domains = 1) ?rounds ?shadow ~landmarks (c : Csr.t) =
  let n = c.Csr.num_vertices in
  let k = Array.length landmarks in
  if k = 0 then invalid_arg "Sssp.run_csr: empty landmark set";
  Array.iter
    (fun v -> if v < 0 || v >= n then invalid_arg "Sssp.run_csr: landmark out of range")
    landmarks;
  let parts = c.Csr.num_partitions in
  let part_off = c.Csr.part_off in
  let esrc = c.Csr.edge_src and edst = c.Csr.edge_dst in
  let sslot = c.Csr.src_slot in
  let group_off = c.Csr.group_off and slot_vertex = c.Csr.slot_vertex in
  let has = c.Csr.has in
  let dist = B1.create Bigarray.int Bigarray.c_layout (n * k) in
  B1.fill dist infinity_dist;
  Array.iteri (fun i l -> B1.unsafe_set dist ((l * k) + i) 0) landmarks;
  let macc = B1.create Bigarray.int Bigarray.c_layout (c.Csr.num_slots * k) in
  let cur = ref (Bytes.make n '\001') in
  let nxt = ref (Bytes.make n '\000') in
  let nchunks = c.Csr.num_chunks in
  let chunk_touched = Array.make (max nchunks 1) 0 in
  let shadowed = Option.is_some shadow in
  let wlogs = Csr.logs ?shadow ~domains Csr.Part_edges c in
  let rlogs = Csr.logs ?shadow ~domains Csr.Chunk_slots c in
  let scatter w p =
    let a = !cur and log = wlogs.(w) and logged = ref 0 in
    for e = B1.unsafe_get part_off p to B1.unsafe_get part_off (p + 1) - 1 do
      let s = B1.unsafe_get esrc e and d = B1.unsafe_get edst e in
      if Bytes.unsafe_get a s <> '\000' || Bytes.unsafe_get a d <> '\000' then begin
        (* candidate = increment (dist d); message flows to the source
           when any slot improves on its current vector. *)
        let sbase = s * k and dbase = d * k in
        let improves = ref false in
        for j = 0 to k - 1 do
          let dd = B1.unsafe_get dist (dbase + j) in
          if dd <> infinity_dist && dd + 1 < B1.unsafe_get dist (sbase + j) then improves := true
        done;
        if !improves then begin
          let slot = B1.unsafe_get sslot e in
          let mbase = slot * k in
          if shadowed then begin
            log.(!logged) <- slot;
            incr logged
          end;
          if Bytes.unsafe_get has slot = '\000' then begin
            Bytes.unsafe_set has slot '\001';
            for j = 0 to k - 1 do
              let dd = B1.unsafe_get dist (dbase + j) in
              B1.unsafe_set macc (mbase + j)
                (if dd = infinity_dist then infinity_dist else dd + 1)
            done
          end
          else
            for j = 0 to k - 1 do
              let dd = B1.unsafe_get dist (dbase + j) in
              let cand = if dd = infinity_dist then infinity_dist else dd + 1 in
              if cand < B1.unsafe_get macc (mbase + j) then B1.unsafe_set macc (mbase + j) cand
            done
        end
      end
    done;
    match shadow with Some own -> Ownership.writes own ~worker:w ~item:p log !logged | None -> ()
  in
  let reduce w ch =
    let next = !nxt and log = rlogs.(w) and logged = ref 0 in
    let lo = ch * Csr.chunk and hi = min n ((ch * Csr.chunk) + Csr.chunk) in
    (* [next] doubles as the chunk's got-a-message flags; [min] folds
       straight into the distance vector. *)
    Bytes.fill next lo (hi - lo) '\000';
    let touched = ref 0 in
    for p = 0 to parts - 1 do
      let grp = (p * nchunks) + ch in
      for slot = B1.unsafe_get group_off grp to B1.unsafe_get group_off (grp + 1) - 1 do
        if Bytes.unsafe_get has slot <> '\000' then begin
          if shadowed then begin
            log.(!logged) <- slot;
            incr logged
          end;
          Bytes.unsafe_set has slot '\000';
          let v = B1.unsafe_get slot_vertex slot in
          if Bytes.unsafe_get next v = '\000' then begin
            Bytes.unsafe_set next v '\001';
            incr touched
          end;
          let mbase = slot * k and vbase = v * k in
          for j = 0 to k - 1 do
            let m = B1.unsafe_get macc (mbase + j) in
            if m < B1.unsafe_get dist (vbase + j) then B1.unsafe_set dist (vbase + j) m
          done
        end
      done
    done;
    chunk_touched.(ch) <- !touched;
    match shadow with Some own -> Ownership.reads own ~worker:w ~item:ch log !logged | None -> ()
  in
  let step = ref 1 in
  Par_exec.with_pool ~domains (fun pool ->
      let continue_ = ref true in
      while !continue_ do
        Par_exec.iter ?shadow pool ~n:parts scatter;
        Par_exec.iter ?shadow pool ~n:nchunks reduce;
        let touched = Array.fold_left ( + ) 0 chunk_touched in
        let swap = !cur in
        cur := !nxt;
        nxt := swap;
        if touched = 0 || !step >= max_supersteps then continue_ := false else incr step
      done);
  (match rounds with Some r -> r := !step | None -> ());
  Array.init n (fun v -> Array.init k (fun j -> B1.unsafe_get dist ((v * k) + j)))

let pick_landmarks ~seed ~count g =
  let rng = Cutfit_prng.Xoshiro.create seed in
  Cutfit_prng.Dist.sample_distinct rng ~n:(Graph.num_vertices g) ~k:count

let reference g ~landmarks =
  (* Forward distance from v to landmark = BFS from the landmark over
     reversed edges. *)
  let k = Array.length landmarks in
  let n = Graph.num_vertices g in
  let per_landmark =
    Array.map
      (fun l ->
        let dist = Array.make n max_int in
        let q = Queue.create () in
        dist.(l) <- 0;
        Queue.push l q;
        while not (Queue.is_empty q) do
          let v = Queue.pop q in
          Graph.iter_in g v (fun u ->
              if dist.(u) = max_int then begin
                dist.(u) <- dist.(v) + 1;
                Queue.push u q
              end)
        done;
        dist)
      landmarks
  in
  Array.init n (fun v -> Array.init k (fun i -> per_landmark.(i).(v)))
