module Graph = Cutfit_graph.Graph
module Pregel = Cutfit_bsp.Pregel

type result = { ranks : float array; trace : Cutfit_bsp.Trace.t }

(* The program's state after superstep 0: every rank at 1.0, since
   GraphX's initial message there is a sentinel that leaves the initial
   rank in place. [part] holds a vertex's sum of shares within the
   partition being scanned and [acc] its sum over partitions at the
   master; both are flat float arrays, so no message is boxed. Whether
   [send] emits reads only [src]'s out-degree, never a rank, so the
   program declares [static_emits]. *)
let program g =
  let n = Graph.num_vertices g in
  let out_deg = Array.init n (fun v -> float_of_int (Graph.out_degree g v)) in
  let rank = Array.make n 1.0 and part = Array.make n 0.0 and acc = Array.make n 0.0 in
  let send ~src ~dst ~emit =
    let d = out_deg.(src) in
    if d > 0.0 then
      if emit Pregel.To_dst then part.(dst) <- rank.(src) /. d
      else part.(dst) <- part.(dst) +. (rank.(src) /. d)
  in
  let flush v ~first = if first then acc.(v) <- part.(v) else acc.(v) <- acc.(v) +. part.(v) in
  let apply v = rank.(v) <- 0.15 +. (0.85 *. acc.(v)) in
  ({ Pregel.send; flush; apply; static_emits = true; state_bytes = 8; msg_bytes = 8 }, rank)

let run ?(iterations = 10) ?scale ?cost ?what_if ?telemetry ~cluster pg =
  let program, ranks = program (Cutfit_bsp.Pgraph.graph pg) in
  let trace =
    Pregel.run ~max_supersteps:iterations ?scale ?cost ?what_if ?telemetry ~cluster pg program
  in
  { ranks; trace }

let price ?(iterations = 10) ?scale ?cost ?what_if ?telemetry ~cluster pg =
  let program, _ = program (Cutfit_bsp.Pgraph.graph pg) in
  Pregel.price ~max_supersteps:iterations ?scale ?cost ?what_if ?telemetry ~cluster pg program

(* --- compact CSR kernel -------------------------------------------

   The same superstep recurrence as [program], on the flat Csr layout:
   scatter accumulates each partition's rank shares into the
   partition's own accumulator-slot range (a left fold in edge order,
   exactly the boxed engine's local combiner); reduce walks a vertex
   chunk's slot groups in ascending partition order, so every vertex
   folds its slots in the boxed engine's cross-partition merge order,
   and then applies the damped update. Both phases write only
   item-owned state, so the result is bit-identical to [run]'s ranks
   at any domain count. With a [shadow], an item logs the slots it
   writes or consumes with a flag test and a store, not a call, and
   hands them over after the item (docs/PERFORMANCE.md, "Shadow hook"). *)

module Csr = Cutfit_bsp.Csr
module Par_exec = Cutfit_bsp.Par_exec
module Ownership = Cutfit_bsp.Ownership
module B1 = Bigarray.Array1

let run_csr ?(iterations = 10) ?(domains = 1) ?rounds ?shadow (c : Csr.t) =
  let n = c.Csr.num_vertices in
  let parts = c.Csr.num_partitions in
  let part_off = c.Csr.part_off in
  let esrc = c.Csr.edge_src and edst = c.Csr.edge_dst in
  let dslot = c.Csr.dst_slot in
  let out_deg = c.Csr.out_deg in
  let group_off = c.Csr.group_off and slot_vertex = c.Csr.slot_vertex in
  let facc = c.Csr.facc and has = c.Csr.has in
  let rank = B1.create Bigarray.float64 Bigarray.c_layout n in
  B1.fill rank 1.0;
  (* After the boxed engine's superstep 0 every vertex is active. *)
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
        let deg = B1.unsafe_get out_deg s in
        if deg > 0 then begin
          let m = B1.unsafe_get rank s /. float_of_int deg in
          let slot = B1.unsafe_get dslot e in
          if shadowed then begin
            log.(!logged) <- slot;
            incr logged
          end;
          if Bytes.unsafe_get has slot = '\000' then begin
            Bytes.unsafe_set has slot '\001';
            B1.unsafe_set facc slot m
          end
          else B1.unsafe_set facc slot (B1.unsafe_get facc slot +. m)
        end
      end
    done;
    match shadow with Some own -> Ownership.writes own ~worker:w ~item:p log !logged | None -> ()
  in
  let reduce w ch =
    let next = !nxt and log = rlogs.(w) and logged = ref 0 in
    let lo = ch * Csr.chunk and hi = min n ((ch * Csr.chunk) + Csr.chunk) in
    (* [next] doubles as the chunk's got-a-message flags, and [rank]
       holds a vertex's running total until the update below. *)
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
            incr touched;
            B1.unsafe_set rank v (B1.unsafe_get facc slot)
          end
          else B1.unsafe_set rank v (B1.unsafe_get rank v +. B1.unsafe_get facc slot)
        end
      done
    done;
    for v = lo to hi - 1 do
      if Bytes.unsafe_get next v <> '\000' then
        B1.unsafe_set rank v (0.15 +. (0.85 *. B1.unsafe_get rank v))
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
  Array.init n (fun v -> B1.unsafe_get rank v)

let reference ~iterations g =
  let n = Graph.num_vertices g in
  let ranks = ref (Array.make n 1.0) in
  for _ = 1 to iterations do
    let next = Array.make n 0.15 in
    for v = 0 to n - 1 do
      let d = Graph.out_degree g v in
      if d > 0 then begin
        let share = 0.85 *. !ranks.(v) /. float_of_int d in
        Graph.iter_out g v (fun u -> next.(u) <- next.(u) +. share)
      end
    done;
    (* Pregel semantics: a vertex with no incoming message keeps its
       rank, so sources never leave their initial value. *)
    for v = 0 to n - 1 do
      if Graph.in_degree g v = 0 then next.(v) <- !ranks.(v)
    done;
    ranks := next
  done;
  !ranks

(* PowerGraph-style formulation of the same computation, used by the
   engine-comparison ablation: gather pulls rank/outdeg over in-edges,
   apply applies the damped update. *)
let gas_program g iterations =
  {
    Cutfit_bsp.Gas.init = (fun _ -> 1.0);
    direction = Cutfit_bsp.Gas.Gather_in;
    gather =
      (fun ~src ~dst:_ ~src_attr ~dst_attr:_ ~target:_ ->
        let d = Graph.out_degree g src in
        if d > 0 then Some (src_attr /. float_of_int d) else None);
    sum = ( +. );
    apply =
      (fun _ rank total ->
        match total with
        | Some t -> (0.15 +. (0.85 *. t), true)
        | None -> (rank, true));
    state_bytes = 8;
    gather_bytes = 8;
  },
  iterations

let run_gas ?(iterations = 10) ?scale ?cost ?what_if ?telemetry ~cluster pg =
  let g = Cutfit_bsp.Pgraph.graph pg in
  let program, max_iterations = gas_program g iterations in
  let r =
    Cutfit_bsp.Gas.run ~max_iterations ?scale ?cost ?what_if ?telemetry ~cluster pg program
  in
  { ranks = r.Cutfit_bsp.Gas.attrs; trace = r.Cutfit_bsp.Gas.trace }
