module Pregel = Cutfit_bsp.Pregel

type result = { labels : int array; trace : Cutfit_bsp.Trace.t }

(* Labels start at the vertex id, which superstep 0's [min] with the
   initial message ([max_int]) leaves in place. Messages, partials and
   accumulators are ints in flat arrays, folded with int comparisons.
   [send] emits only across differing labels, so [static_emits] is
   false. *)
let program n =
  let label = Array.init n Fun.id and part = Array.make n 0 and acc = Array.make n 0 in
  let send ~src ~dst ~emit =
    let ls = label.(src) and ld = label.(dst) in
    if ls < ld then begin
      if emit Pregel.To_dst || ls < part.(dst) then part.(dst) <- ls
    end
    else if ld < ls then if emit Pregel.To_src || ld < part.(src) then part.(src) <- ld
  in
  let flush v ~first = if first || part.(v) < acc.(v) then acc.(v) <- part.(v) in
  let apply v = if acc.(v) < label.(v) then label.(v) <- acc.(v) in
  ({ Pregel.send; flush; apply; static_emits = false; state_bytes = 8; msg_bytes = 8 }, label)

let run ?(iterations = 10) ?scale ?cost ?what_if ?telemetry ~cluster pg =
  let program, labels = program (Cutfit_graph.Graph.num_vertices (Cutfit_bsp.Pgraph.graph pg)) in
  let trace =
    Pregel.run ~max_supersteps:iterations ?scale ?cost ?what_if ?telemetry ~cluster pg program
  in
  { labels; trace }

let reference g = fst (Cutfit_graph.Components.weak g)

(* --- compact CSR kernel -------------------------------------------

   Label propagation on the flat layout. The combiner is [min] over
   ints — order-exact — so the partition-indexed reduction order here
   is about structure (slot ranges, active tracking), not float
   semantics; the labels match the boxed engine's bit-for-bit at any
   domain count by construction. A [shadow] is recorded as in
   [Pagerank.run_csr]. *)

module Csr = Cutfit_bsp.Csr
module Par_exec = Cutfit_bsp.Par_exec
module Ownership = Cutfit_bsp.Ownership
module B1 = Bigarray.Array1

let run_csr ?(iterations = 10) ?(domains = 1) ?rounds ?shadow (c : Csr.t) =
  let n = c.Csr.num_vertices in
  let parts = c.Csr.num_partitions in
  let part_off = c.Csr.part_off in
  let esrc = c.Csr.edge_src and edst = c.Csr.edge_dst in
  let sslot = c.Csr.src_slot and dslot = c.Csr.dst_slot in
  let group_off = c.Csr.group_off and slot_vertex = c.Csr.slot_vertex in
  let iacc = c.Csr.iacc and has = c.Csr.has in
  let label = B1.create Bigarray.int Bigarray.c_layout n in
  for v = 0 to n - 1 do
    B1.unsafe_set label v v
  done;
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
        let ls = B1.unsafe_get label s and ld = B1.unsafe_get label d in
        if ls <> ld then begin
          let slot = if ls < ld then B1.unsafe_get dslot e else B1.unsafe_get sslot e in
          let m = if ls < ld then ls else ld in
          if shadowed then begin
            log.(!logged) <- slot;
            incr logged
          end;
          if Bytes.unsafe_get has slot = '\000' then begin
            Bytes.unsafe_set has slot '\001';
            B1.unsafe_set iacc slot m
          end
          else if m < B1.unsafe_get iacc slot then B1.unsafe_set iacc slot m
        end
      end
    done;
    match shadow with Some own -> Ownership.writes own ~worker:w ~item:p log !logged | None -> ()
  in
  let reduce w ch =
    let next = !nxt and log = rlogs.(w) and logged = ref 0 in
    let lo = ch * Csr.chunk and hi = min n ((ch * Csr.chunk) + Csr.chunk) in
    (* [next] doubles as the chunk's got-a-message flags; [min] folds
       straight into the label. *)
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
          let m = B1.unsafe_get iacc slot in
          if m < B1.unsafe_get label v then B1.unsafe_set label v m
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
        if touched = 0 || !step >= iterations then continue_ := false else incr step
      done);
  (match rounds with Some r -> r := !step | None -> ());
  Array.init n (fun v -> B1.unsafe_get label v)
