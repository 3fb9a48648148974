module Graph = Cutfit_graph.Graph

type direction = To_src | To_dst

type program = {
  send : src:int -> dst:int -> emit:(direction -> bool) -> unit;
  flush : int -> first:bool -> unit;
  apply : int -> unit;
  static_emits : bool;
  state_bytes : int;
  msg_bytes : int;
}

(* Growable int vector for the per-superstep touched-vertex set. *)
module Ivec = struct
  type t = { mutable data : int array; mutable len : int }

  let create () = { data = Array.make 1024 0; len = 0 }

  let push t v =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (2 * t.len) 0 in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- v;
    t.len <- t.len + 1

  let clear t = t.len <- 0
end

(* A sparse superstep visits only the positions (indices into
   [Pgraph.part_edges]) incident to the frontier, and runs when the
   frontier's degree sum is below half the edge count. Ratios 2, 4 and
   8 measured alike on roadnet_pa and youtube SSSP; a frontier of a few
   percent of the edges, where the saving lies, is sparse under all of
   them. *)
let sparse_ratio = 2

(* Every vertex's positions in [part_edges], ascending: vertex [v]'s
   are [pos.(off.(v)) .. pos.(off.(v + 1) - 1)]. One counting pass; a
   self-loop's position is listed once. *)
let incidence ~n ~gsrc ~gdst part_edges =
  let m = Array.length part_edges in
  let off = Array.make (n + 1) 0 in
  for i = 0 to m - 1 do
    let e = part_edges.(i) in
    let s = gsrc.(e) and d = gdst.(e) in
    off.(s) <- off.(s) + 1;
    if d <> s then off.(d) <- off.(d) + 1
  done;
  for v = 1 to n do
    off.(v) <- off.(v) + off.(v - 1)
  done;
  (* [off.(v)] is now the end of [v]'s range; filling from the last
     position down leaves each range ascending and [off.(v)] at its
     start. *)
  let pos = Array.make off.(n) 0 in
  for i = m - 1 downto 0 do
    let e = part_edges.(i) in
    let s = gsrc.(e) and d = gdst.(e) in
    off.(s) <- off.(s) - 1;
    pos.(off.(s)) <- i;
    if d <> s then begin
      off.(d) <- off.(d) - 1;
      pos.(off.(d)) <- i
    end
  done;
  (off, pos)

(* The frontier bitmap holds 32 positions per word, so the lowest set
   bit's index is a de Bruijn multiply and a table read. *)
let debruijn32 =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8; 31; 27; 13; 23; 21; 19; 16; 7; 26; 12;
     18; 6; 11; 5; 10; 9 |]

let ctz32 low = debruijn32.(((low * 0x077CB531) land 0xFFFFFFFF) lsr 27)

(* The skip charges a partition's scan adds from 0.0: entry [j] is [j]
   of them, added one at a time, for [0 <= j <=] the largest
   partition's size. A sparse step's partition whose work is still 0.0
   when its scan starts (remote charges from lower partitions are rare)
   reads its charges up to the first marked position here, at the
   position's offset in the partition, or all of them when none is
   marked. *)
let skips_from_zero ~part_off ~skip_s =
  let largest = ref 0 in
  for p = 0 to Array.length part_off - 2 do
    largest := max !largest (part_off.(p + 1) - part_off.(p))
  done;
  let table = Array.make (!largest + 1) 0.0 in
  for j = 1 to !largest do
    table.(j) <- table.(j - 1) +. skip_s
  done;
  table

(* [k] skip charges added to [work.(p)] one at a time, as the dense
   loop adds them. In a function of its own the running sum stays in a
   register; inside the scan loop it would live on the stack, since it
   is live across the [send] call. *)
let add_skips (work : float array) p skip_s k =
  let w = ref work.(p) in
  for _ = 1 to k do
    w := !w +. skip_s
  done;
  work.(p) <- !w

(* [run] and [price] share this body; [values] is [false] only for
   [price], whose repeated static-emits steps run no program call. *)
let exec ~values ?(max_supersteps = 500) ?(scale = 1.0) ?(cost = Cost_model.default) ?what_if
    ?telemetry ~cluster pg program =
  let g = Pgraph.graph pg in
  let n = Graph.num_vertices g in
  let num_partitions = Pgraph.num_partitions pg in
  if cluster.Cluster.num_partitions <> num_partitions then
    invalid_arg "Pregel.run: cluster and partitioned graph disagree on partition count";
  let pr =
    Pricer.create ~scale ~cost ?what_if ?telemetry ~label:"pregel"
      ~state_bytes:program.state_bytes ~cluster pg
  in
  let ert = Pricer.runtime pr in
  (* The executor of every partition under the live membership. Only
     [Pricer.begin_step] changes the membership (through
     [Elastic.step_events]), so the array is refreshed right after each
     [begin_step] and the hot loops read it with no call per message. *)
  let pex = Array.make num_partitions 0 in
  let refresh_placement () =
    for p = 0 to num_partitions - 1 do
      pex.(p) <- Elastic.exec_of ert p
    done
  in
  refresh_placement ();
  let master = Pgraph.masters pg in
  let part_off = Pgraph.part_off pg and part_edges = Pgraph.part_edges pg in
  let route_off = Pgraph.route_off pg and route_parts = Pgraph.route_parts pg in
  let gsrc = Graph.src_array g and gdst = Graph.dst_array g in
  let merge_s = cost.Cost_model.msg_merge_s and serialize_s = cost.Cost_model.msg_serialize_s in
  let scan_s = cost.Cost_model.edge_scan_s and skip_s = cost.Cost_model.edge_skip_s in

  let active = Bytes.make n '\000' in
  (* The program holds the values, partials and accumulators; the
     engine tracks only who holds one. [has] marks the vertices whose
     master accumulator is live this step, and [touched] lists them in
     first-touch order. *)
  let has = Bytes.make n '\000' in
  let touched = Ivec.create () in
  (* [phas] marks the vertices with a partial in the partition being
     scanned, and [ptouched] lists them in first-touch (edge) order.
     Messages combine into the partial in edge order, then partials
     flush into the master accumulators in ascending partition order.
     This fixes the cross-partition reduction order per partition
     index — the order the parallel {!Csr} kernels reproduce, which is
     what makes boxed and CSR results bit-identical for
     non-associative float merges. A vertex's first message in a
     partition is also its one shuffle aggregate for that partition. *)
  let phas = Bytes.make n '\000' in
  let ptouched = Ivec.create () in

  (* Per-executor static working set (the cached graph), paper-scale,
     against the initial placement. It never changes during a run, so
     the executor-memory check is loop-invariant. *)
  let resident = Array.make cluster.Cluster.executors 0.0 in
  for p = 0 to num_partitions - 1 do
    let e = pex.(p) in
    resident.(e) <-
      resident.(e)
      +. scale
         *. (float_of_int (Pgraph.num_edges_of_partition pg p * cost.Cost_model.edge_object_bytes)
            +. float_of_int
                 (Pgraph.local_vertices pg p
                 * (cost.Cost_model.vertex_object_bytes + program.state_bytes)))
  done;
  let exec_peak = Array.fold_left Float.max 0.0 resident in
  let exec_oom = exec_peak > cluster.Cluster.executor_memory_bytes in

  let msg_wire_bytes = float_of_int (program.msg_bytes + cost.Cost_model.msg_wire_overhead_bytes) in
  let attr_wire_bytes =
    float_of_int (program.state_bytes + cost.Cost_model.msg_wire_overhead_bytes)
  in

  (* Vertex-side charges of one updated vertex, shared by superstep 0
     and the main loop: the vprog cost at its master, then the refresh
     of every replica along the routing table. *)
  let bcast = ref 0 and remote_bcast = ref 0 in
  let broadcast (c : Pricer.counts) v =
    let mp = master.(v) in
    let mexec = pex.(mp) in
    let wm = ref (c.Pricer.work.(mp) +. cost.Cost_model.vprog_s) in
    for i = route_off.(v) to route_off.(v + 1) - 1 do
      let qexec = pex.(route_parts.(i)) in
      incr bcast;
      wm := !wm +. serialize_s;
      if qexec <> mexec then begin
        incr remote_bcast;
        c.Pricer.bytes_out.(mexec) <- c.Pricer.bytes_out.(mexec) +. attr_wire_bytes;
        c.Pricer.bytes_in.(qexec) <- c.Pricer.bytes_in.(qexec) +. attr_wire_bytes
      end
    done;
    c.Pricer.work.(mp) <- !wm
  in

  Pricer.build pr;

  (* Superstep 0: vprog everywhere with the initial message, then a full
     broadcast materializes the replicated vertex views. The program
     starts in its post-superstep-0 state, so only the charges run. *)
  let outcome =
    let c = Pricer.begin_step pr ~step:0 in
    refresh_placement ();
    for v = 0 to n - 1 do
      Bytes.unsafe_set active v '\001';
      broadcast c v
    done;
    ref
      (Pricer.superstep pr ~step:0
         { c with Pricer.updated = n; bcast = !bcast; remote_bcast = !remote_bcast })
  in

  (* Frontier-driven steps. The frontier of step s >= 2 is step s-1's
     [touched]; when its degree sum [frontier_degree] is small against
     m, step s marks the frontier's incident positions in [bits] and
     visits only those, in the dense loop's order. Step 1 follows the
     all-vertex step 0 and is always dense. The incidence index, the
     bitmap and the zero-start skip table are built on the first sparse
     step, so a dense-only run (PageRank) builds none of them. *)
  let m = part_off.(num_partitions) in
  let frontier_degree = ref 0 and sparse = ref false in
  let index = ref None and bits = ref [||] and from_zero = ref [||] in
  let mark_frontier () =
    let off, pos =
      match !index with
      | Some ix -> ix
      | None ->
          let ix = incidence ~n ~gsrc ~gdst part_edges in
          index := Some ix;
          bits := Array.make ((m + 31) lsr 5) 0;
          from_zero := skips_from_zero ~part_off ~skip_s;
          ix
    in
    let bits = !bits in
    for j = 0 to touched.Ivec.len - 1 do
      let v = touched.Ivec.data.(j) in
      for k = off.(v) to off.(v + 1) - 1 do
        let i = pos.(k) in
        bits.(i lsr 5) <- bits.(i lsr 5) lor (1 lsl (i land 31))
      done
    done
  in

  let step = ref 1 in
  let messages = ref 0 and shuffle_groups = ref 0 and remote_shuffles = ref 0 in
  (* The scan's cursor, which [emit] reads: the step's charge arrays,
     the partition being scanned and its executor, and the endpoints of
     the edge being sent over. One [emit] serves the whole run. *)
  let cur_work = ref [||] and cur_out = ref [||] and cur_in = ref [||] in
  let cur_p = ref 0 and cur_pexec = ref 0 and cur_src = ref 0 and cur_dst = ref 0 in
  let emit dir =
    let v = match dir with To_src -> !cur_src | To_dst -> !cur_dst in
    let work = !cur_work and p = !cur_p in
    incr messages;
    work.(p) <- work.(p) +. merge_s;
    if Bytes.unsafe_get phas v <> '\000' then false
    else begin
      Bytes.unsafe_set phas v '\001';
      Ivec.push ptouched v;
      (* The first message to [v] here opens the one shuffle aggregate
         of the (vertex, partition) pair. *)
      incr shuffle_groups;
      let mp = master.(v) in
      let mexec = pex.(mp) and pexec = !cur_pexec in
      work.(p) <- work.(p) +. serialize_s;
      if mexec <> pexec then begin
        let bytes_out = !cur_out and bytes_in = !cur_in in
        incr remote_shuffles;
        bytes_out.(pexec) <- bytes_out.(pexec) +. msg_wire_bytes;
        bytes_in.(mexec) <- bytes_in.(mexec) +. msg_wire_bytes;
        work.(mp) <- work.(mp) +. serialize_s
      end;
      true
    end
  in
  (* [emit] in a repeated superstep: the count and the first-message
     bookkeeping, no charge. *)
  let emit_repeated dir =
    let v = match dir with To_src -> !cur_src | To_dst -> !cur_dst in
    incr messages;
    if Bytes.unsafe_get phas v <> '\000' then false
    else begin
      Bytes.unsafe_set phas v '\001';
      Ivec.push ptouched v;
      incr shuffle_groups;
      true
    end
  in

  (* Repeated supersteps. A static-emits program's charges in a step
     follow from its active edges (which fix the emissions and so the
     touched vertices, in order) and from the placement, given the fixed
     masters and route table. So a step whose active edges and [pex]
     equal those of the last charged step is priced from that step's
     counts. Under [run] it still runs values, the same [send], flush
     and apply calls with no charge; under [price] it runs nothing. Its
     touched vertices are the charged step's, which are also its own
     frontier (the previous step, charged or repeated, touched them), so
     a skipped step leaves [active] and [touched] as running it would.
     Nothing is kept for any other program. *)
  let static_emits = program.static_emits in
  let charged_active = if static_emits then Bytes.make n '\000' else Bytes.empty in
  let charged_pex = if static_emits then Array.make num_partitions 0 else [||] in
  let charged = ref None and reused = ref 0 in
  let same_placement () =
    let same = ref true in
    for p = 0 to num_partitions - 1 do
      if charged_pex.(p) <> pex.(p) then same := false
    done;
    !same
  in
  (* [charged_active] is a frontier with the charged step's active
     edges. An edge with no endpoint where the two frontiers differ
     reads the same bytes in both, so only the edges at such a vertex
     [x] are walked: one is active under both frontiers exactly when its
     other endpoint is on in the frontier where [x] is off. *)
  let out_off, out_adj = Graph.out_csr g and in_off, in_adj = Graph.in_csr g in
  let same_active_edges () =
    Bytes.equal active charged_active
    ||
    let same = ref true and x = ref 0 in
    while !same && !x < n do
      let v = !x in
      let on = Bytes.unsafe_get active v in
      if on <> Bytes.unsafe_get charged_active v then begin
        let other = if on <> '\000' then charged_active else active in
        let covered off adj =
          let k = ref off.(v) in
          while !same && !k < off.(v + 1) do
            if Bytes.unsafe_get other adj.(!k) = '\000' then same := false;
            incr k
          done
        in
        covered out_off out_adj;
        covered in_off in_adj
      end;
      incr x
    done;
    !same
  in
  (* A step priced from stored counts must have emitted what they
     count. *)
  let check_repeat (c : Pricer.counts) ~active_edges =
    if
      c.Pricer.active_edges <> active_edges
      || c.Pricer.messages <> !messages
      || c.Pricer.shuffle_groups <> !shuffle_groups
      || c.Pricer.updated <> touched.Ivec.len
    then
      invalid_arg
        (Printf.sprintf
           "Pregel.run: superstep %d repeats the active edges and placement of a charged one but \
            emitted differently; the program's emissions depend on its values, so it must not \
            declare static_emits"
           !step)
  in
  (* One superstep's scan, flushes, vertex programs and broadcast, and
     its counts: fresh in [c], or for a [repeat] the stored ones once
     the guard has compared them. *)
  let run_step (c : Pricer.counts) ~repeat =
    let work = c.Pricer.work in
    cur_work := work;
    cur_out := c.Pricer.bytes_out;
    cur_in := c.Pricer.bytes_in;
    let active_edges = ref 0 in
    messages := 0;
    shuffle_groups := 0;
    remote_shuffles := 0;
    if !sparse && not repeat then mark_frontier ();
    Ivec.clear touched;
    (* Message generation, partition by partition. *)
    for p = 0 to num_partitions - 1 do
      cur_p := p;
      cur_pexec := pex.(p);
      if repeat then
        (* A repeated step's scan: the dense loop's edges and [send]
           calls, no charges. *)
        for i = part_off.(p) to part_off.(p + 1) - 1 do
          let e = part_edges.(i) in
          let src = gsrc.(e) and dst = gdst.(e) in
          if Bytes.unsafe_get active src <> '\000' || Bytes.unsafe_get active dst <> '\000' then begin
            incr active_edges;
            cur_src := src;
            cur_dst := dst;
            program.send ~src ~dst ~emit:emit_repeated
          end
        done
      else if not !sparse then begin
        (* The cost constants are not dyadic, so every charge stays its
           own float addition, in edge order. Skip charges chain through
           the local [wp], which is written back before [send] (its
           [emit] adds to [work.(p)] directly) and reloaded after it. *)
        let wp = ref work.(p) in
        for i = part_off.(p) to part_off.(p + 1) - 1 do
          let e = part_edges.(i) in
          let src = gsrc.(e) and dst = gdst.(e) in
          if Bytes.unsafe_get active src <> '\000' || Bytes.unsafe_get active dst <> '\000' then begin
            incr active_edges;
            work.(p) <- !wp +. scan_s;
            cur_src := src;
            cur_dst := dst;
            program.send ~src ~dst ~emit;
            wp := work.(p)
          end
          else wp := !wp +. skip_s
        done;
        work.(p) <- !wp
      end
      else begin
        (* The dense loop's additions in its order: one [skip_s] per
           position between two marked ones, from [add_skips] or, up to
           the first marked position of a partition whose work is
           still 0.0, from [from_zero]; then the active-edge body
           unchanged. Partitions run in ascending order and clear their
           bits as they go, so a word's bits below [lo] are already
           clear; bits at or past [hi] belong to later partitions and
           stay. *)
        let bits = !bits and from_zero = !from_zero in
        let lo = part_off.(p) and hi = part_off.(p + 1) in
        let next = ref lo in
        let skip_to i =
          if i > !next then
            if !next = lo && Float.equal work.(p) 0.0 then work.(p) <- from_zero.(i - lo)
            else add_skips work p skip_s (i - !next)
        in
        if hi > lo then
          for k = lo lsr 5 to (hi - 1) lsr 5 do
            let word = bits.(k) in
            if word <> 0 then begin
              let base = k lsl 5 in
              let mine = if hi - base < 32 then word land ((1 lsl (hi - base)) - 1) else word in
              bits.(k) <- word lxor mine;
              let rest = ref mine in
              while !rest <> 0 do
                let low = !rest land - !rest in
                rest := !rest lxor low;
                let i = base + ctz32 low in
                skip_to i;
                next := i + 1;
                let e = part_edges.(i) in
                let src = gsrc.(e) and dst = gdst.(e) in
                incr active_edges;
                work.(p) <- work.(p) +. scan_s;
                cur_src := src;
                cur_dst := dst;
                program.send ~src ~dst ~emit
              done
            end
          done;
        skip_to hi
      end;
      (* Flush this partition's combined partials into the master-side
         accumulators. Partitions are visited in ascending order, so each
         vertex's cross-partition merge is a left fold over ascending
         partition indices; within a flush, vertices appear in
         first-touch (edge) order, which keeps the global [touched]
         order identical to direct per-message merging. *)
      for j = 0 to ptouched.Ivec.len - 1 do
        let v = ptouched.Ivec.data.(j) in
        Bytes.unsafe_set phas v '\000';
        let first = Bytes.unsafe_get has v = '\000' in
        if first then begin
          Bytes.unsafe_set has v '\001';
          Ivec.push touched v
        end;
        program.flush v ~first
      done;
      Ivec.clear ptouched
    done;
    (* Vertex programs at masters, then replica refresh. *)
    Bytes.fill active 0 n '\000';
    bcast := 0;
    remote_bcast := 0;
    frontier_degree := 0;
    for j = 0 to touched.Ivec.len - 1 do
      let v = touched.Ivec.data.(j) in
      program.apply v;
      Bytes.unsafe_set has v '\000';
      Bytes.unsafe_set active v '\001';
      frontier_degree := !frontier_degree + Graph.out_degree g v + Graph.in_degree g v;
      if not repeat then broadcast c v
    done;
    sparse := sparse_ratio * !frontier_degree < m;
    match !charged with
    | Some stored when repeat ->
        check_repeat stored ~active_edges:!active_edges;
        stored
    | _ ->
        let c =
          {
            c with
            Pricer.active_edges = !active_edges;
            messages = !messages;
            shuffle_groups = !shuffle_groups;
            remote_shuffles = !remote_shuffles;
            updated = touched.Ivec.len;
            bcast = !bcast;
            remote_bcast = !remote_bcast;
          }
        in
        if static_emits then charged := Some c;
        c
  in
  while Option.is_none !outcome do
    let c = Pricer.begin_step pr ~step:!step in
    refresh_placement ();
    let repeat = Option.is_some !charged && same_placement () && same_active_edges () in
    if static_emits then begin
      Bytes.blit active 0 charged_active 0 n;
      if not repeat then Array.blit pex 0 charged_pex 0 num_partitions
    end;
    if repeat then incr reused;
    let counts =
      match !charged with
      | Some stored when repeat && not values -> stored
      | _ -> run_step c ~repeat
    in
    let verdict = Pricer.superstep pr ~step:!step counts in
    outcome :=
      if exec_oom then Some Trace.Out_of_memory
      else if Option.is_some verdict then verdict
      else if touched.Ivec.len = 0 then Some Trace.Completed
      else if !step >= max_supersteps then Some Trace.Max_supersteps
      else begin
        incr step;
        None
      end
  done;
  Option.iter
    (fun h ->
      Cutfit_obs.Metric.add
        (Cutfit_obs.Metric.counter (Cutfit_obs.Telemetry.metrics h) "bsp.reused_steps")
        !reused)
    telemetry;
  (* Only this engine models executor memory: GAS and triangle counting
     report a zero peak. *)
  Pricer.finish pr ~outcome:(Option.get !outcome) ~peak_executor_bytes:exec_peak

let run ?max_supersteps ?scale ?cost ?what_if ?telemetry ~cluster pg program =
  exec ~values:true ?max_supersteps ?scale ?cost ?what_if ?telemetry ~cluster pg program

let price ?max_supersteps ?scale ?cost ?what_if ?telemetry ~cluster pg program =
  exec ~values:false ?max_supersteps ?scale ?cost ?what_if ?telemetry ~cluster pg program
