module Graph = Cutfit_graph.Graph
module Pgraph = Cutfit_bsp.Pgraph
module Cluster = Cutfit_bsp.Cluster
module Cost_model = Cutfit_bsp.Cost_model
module Trace = Cutfit_bsp.Trace
module Pricer = Cutfit_bsp.Pricer

type result = { per_vertex : int array; total : int; trace : Trace.t }

(* --- compact CSR kernel -------------------------------------------

   A forward count in vertex-id order over the upper-neighbour view
   ([Graph.upper_neighbours]: each vertex's distinct undirected
   neighbours above it). For u ascending, up(u) is stamped with u in a
   mark array; then for each v in up(u), every x in up(v) that carries
   u's stamp closes the triangle u < v < x, found exactly once. This is
   the intersection of up(u)'s part after v with up(v) — every x in
   up(v) is above v — done by lookup rather than by a merge, so a pair
   costs |up(v)| predictable loads instead of a branchy walk of both
   lists. [run] finds each triangle once per canonical edge instance
   between u and v (its two lowest ids), so it is weighted here by that
   same number: the count of u -> v edges if there is one, else of
   v -> u.

   The partition layout is not read: walking edges in partition order
   touches two random adjacency lists per edge, which on large graphs
   is bound by memory latency, while id order walks up(u) sequentially.
   Counts are plain int sums — exact under any accumulation order — so
   each worker counts into its own array over dynamically claimed
   vertex ranges and the arrays are summed per vertex afterwards. *)

module Csr = Cutfit_bsp.Csr
module Par_exec = Cutfit_bsp.Par_exec
module Ownership = Cutfit_bsp.Ownership

let run_csr ?(domains = 1) ?shadow (c : Csr.t) =
  let g = c.Csr.graph in
  let n = c.Csr.num_vertices in
  let off, up = Graph.upper_neighbours g in
  let worker_counts = Array.init domains (fun _ -> Array.make n 0) in
  let worker_marks = Array.init domains (fun _ -> Array.make n (-1)) in
  let scatter w ch =
    let counts = worker_counts.(w) and mark = worker_marks.(w) in
    (* Unchecked reads: [off] is monotone with [off.(n) = length up]
       and every id in [up] is below [n]. *)
    for u = ch * Csr.chunk to min n ((ch * Csr.chunk) + Csr.chunk) - 1 do
      let u_lo = Array.unsafe_get off u and u_hi = Array.unsafe_get off (u + 1) in
      for i = u_lo to u_hi - 1 do
        mark.(Array.unsafe_get up i) <- u
      done;
      for i = u_lo to u_hi - 1 do
        let v = Array.unsafe_get up i in
        let weight = ref 0 in
        for j = Array.unsafe_get off v to Array.unsafe_get off (v + 1) - 1 do
          let x = Array.unsafe_get up j in
          if Array.unsafe_get mark x = u then begin
            if !weight = 0 then begin
              let k = Graph.edge_multiplicity g ~src:u ~dst:v in
              weight := if k > 0 then k else Graph.edge_multiplicity g ~src:v ~dst:u
            end;
            counts.(u) <- counts.(u) + !weight;
            counts.(v) <- counts.(v) + !weight;
            counts.(x) <- counts.(x) + !weight
          end
        done
      done
    done
  in
  (* The reduce writes [per_vertex] by chunk; with a [shadow] (a
     vertex-space recorder) it logs those writes as the PageRank kernel
     logs slots. The scatter writes only worker-owned arrays, so it is
     not recorded. *)
  let per_vertex = Array.make n 0 in
  let shadowed = Option.is_some shadow in
  let logs = Array.init domains (fun _ -> if shadowed then Array.make Csr.chunk 0 else [||]) in
  let reduce w ch =
    let log = logs.(w) and logged = ref 0 in
    for v = ch * Csr.chunk to min n ((ch * Csr.chunk) + Csr.chunk) - 1 do
      let total = ref 0 in
      for u = 0 to domains - 1 do
        total := !total + worker_counts.(u).(v)
      done;
      if shadowed then begin
        log.(!logged) <- v;
        incr logged
      end;
      per_vertex.(v) <- !total
    done;
    match shadow with Some own -> Ownership.writes own ~worker:w ~item:ch log !logged | None -> ()
  in
  Par_exec.with_pool ~domains (fun pool ->
      Par_exec.iter pool ~n:c.Csr.num_chunks scatter;
      Par_exec.iter ?shadow pool ~n:c.Csr.num_chunks reduce);
  (per_vertex, Array.fold_left ( + ) 0 per_vertex / 3)

let run ?(scale = 1.0) ?(cost = Cost_model.default) ?undirected ?telemetry ~cluster pg =
  let g = Pgraph.graph pg in
  let n = Graph.num_vertices g in
  let num_partitions = Pgraph.num_partitions pg in
  if cluster.Cluster.num_partitions <> num_partitions then
    invalid_arg "Triangle_count.run: cluster and partitioned graph disagree on partition count";
  let und = match undirected with Some u -> u | None -> Graph.symmetrize g in
  if Graph.num_vertices und <> n then invalid_arg "Triangle_count.run: undirected view mismatch";
  let deg v = Graph.out_degree und v in
  (* Materialize each vertex's sorted neighbour set once; fetching a
     fresh copy per edge would cost O(sum deg^2) allocation. *)
  let adjacency = Array.init n (Graph.out_neighbors und) in
  (* The four stages are priced by the shared superstep pricer under an
     inert runtime: no faults, speculation or scale events, so placement
     is the static round robin and every multiplier is 1.0. A fixed
     dataflow, unlike an iterated Pregel job, leaves no per-task lineage
     on the driver, and no checkpoint or re-shuffle ever ships vertex
     state. *)
  let pr =
    Pricer.create ~scale
      ~cost:{ cost with Cost_model.driver_meta_per_task_bytes = 0.0 }
      ?telemetry ~label:"triangle_count" ~state_bytes:0 ~cluster pg
  in
  (* Under the inert runtime no [begin_step] changes the membership, so
     one placement array serves all four stages. *)
  let ert = Pricer.runtime pr in
  let pex = Array.init num_partitions (Cutfit_bsp.Elastic.exec_of ert) in
  let master = Pgraph.masters pg in
  let part_off = Pgraph.part_off pg and part_edges = Pgraph.part_edges pg in
  let route_off = Pgraph.route_off pg and route_parts = Pgraph.route_parts pg in
  let gsrc = Graph.src_array g and gdst = Graph.dst_array g in
  let stage ~step c = ignore (Pricer.superstep pr ~step c) in

  (* Stage 1 — collect neighbour ids: every edge contributes both
     endpoint ids; partials are merged per partition and reduced at each
     vertex's master, where cut vertices pay the heavy array-merge. *)
  begin
    let c = Pricer.begin_step pr ~step:0 in
    let work = c.Pricer.work and bytes_out = c.Pricer.bytes_out in
    let messages = ref 0 and remote = ref 0 in
    for p = 0 to num_partitions - 1 do
      let pexec = pex.(p) in
      let ship v = if pex.(master.(v)) <> pexec then bytes_out.(pexec) <- bytes_out.(pexec) +. 8.0 in
      for i = part_off.(p) to part_off.(p + 1) - 1 do
        let e = part_edges.(i) in
        work.(p) <-
          work.(p) +. cost.Cost_model.edge_scan_s +. (2.0 *. cost.Cost_model.msg_merge_s);
        messages := !messages + 2;
        ship gsrc.(e);
        ship gdst.(e)
      done
    done;
    (* One aggregate per (vertex, partition) routing entry. The master
       merges one partial array per replica; for cut vertices that is a
       genuine multi-way array reduction, which is the heavy per-cut-
       vertex JVM cost the paper blames for TR's Cut sensitivity. *)
    let groups = ref 0 in
    for v = 0 to n - 1 do
      let r = Pgraph.replica_count pg v in
      groups := !groups + r;
      let mp = master.(v) in
      let mexec = pex.(mp) in
      for i = route_off.(v) to route_off.(v + 1) - 1 do
        let qexec = pex.(route_parts.(i)) in
        if qexec <> mexec then begin
          incr remote;
          bytes_out.(qexec) <-
            bytes_out.(qexec) +. float_of_int cost.Cost_model.msg_wire_overhead_bytes
        end
      done;
      if r >= 2 then work.(mp) <- work.(mp) +. cost.Cost_model.cut_vertex_reduce_s;
      work.(mp) <- work.(mp) +. (float_of_int (deg v) *. cost.Cost_model.msg_merge_s)
    done;
    stage ~step:0
      {
        c with
        Pricer.active_edges = Graph.num_edges g;
        messages = !messages;
        shuffle_groups = !groups;
        remote_shuffles = !remote;
        updated = n;
      }
  end;

  (* Stage 2 — replicate neighbour sets along the routing table. Each
     set is serialized once at the master and shipped once per remote
     executor (partitions on one machine share the block-manager copy),
     so the wire cost tracks graph size, while the per-cut-vertex
     serialization overhead tracks the Cut metric. *)
  begin
    let c = Pricer.begin_step pr ~step:1 in
    let work = c.Pricer.work and bytes_out = c.Pricer.bytes_out in
    let bcast = ref 0 and remote_bcast = ref 0 in
    let exec_seen = Array.make cluster.Cluster.executors (-1) in
    for v = 0 to n - 1 do
      let mp = master.(v) in
      let mexec = pex.(mp) in
      let set_bytes = float_of_int ((8 * deg v) + cost.Cost_model.msg_wire_overhead_bytes) in
      work.(mp) <-
        work.(mp) +. cost.Cost_model.msg_serialize_s
        +. (float_of_int (deg v) *. cost.Cost_model.array_element_s);
      if Pgraph.replica_count pg v >= 2 then
        work.(mp) <- work.(mp) +. cost.Cost_model.cut_vertex_reduce_s;
      for i = route_off.(v) to route_off.(v + 1) - 1 do
        incr bcast;
        let e = pex.(route_parts.(i)) in
        if e <> mexec && exec_seen.(e) <> v then begin
          exec_seen.(e) <- v;
          incr remote_bcast;
          bytes_out.(mexec) <- bytes_out.(mexec) +. set_bytes
        end
      done
    done;
    stage ~step:1 { c with Pricer.updated = n; bcast = !bcast; remote_bcast = !remote_bcast }
  end;

  (* Stage 3 — per-edge set intersection, on canonical (unordered)
     edges so each pair is counted exactly once. This is the compute-
     heavy stage whose stragglers make fine-grain partitioning win. *)
  let counts = Array.make n 0 in
  begin
    let c = Pricer.begin_step pr ~step:2 in
    let work = c.Pricer.work in
    let active = ref 0 in
    for p = 0 to num_partitions - 1 do
      for i = part_off.(p) to part_off.(p + 1) - 1 do
        let e = part_edges.(i) in
        let src = gsrc.(e) and dst = gdst.(e) in
        let canonical =
          src <> dst && (src < dst || not (Graph.has_edge g ~src:dst ~dst:src))
        in
        if not canonical then work.(p) <- work.(p) +. cost.Cost_model.edge_skip_s
        else begin
          incr active;
          (* Intersect small-into-large with binary search, as a hash
             "contains" probe does in GraphX's VertexSet. *)
          let sa = adjacency.(src) and sb = adjacency.(dst) in
          let small, big = if Array.length sa <= Array.length sb then (sa, sb) else (sb, sa) in
          let probes = ref 0 in
          Array.iter
            (fun x ->
              incr probes;
              let lo = ref 0 and hi = ref (Array.length big - 1) and found = ref false in
              while (not !found) && !lo <= !hi do
                let mid = (!lo + !hi) / 2 in
                let y = big.(mid) in
                if y = x then found := true else if y < x then lo := mid + 1 else hi := mid - 1
              done;
              (* A triangle is discovered once per edge; demanding the
                 common neighbour be the largest vertex counts each
                 triangle exactly once. *)
              if !found && x > src && x > dst then begin
                counts.(src) <- counts.(src) + 1;
                counts.(dst) <- counts.(dst) + 1;
                counts.(x) <- counts.(x) + 1
              end)
            small;
          work.(p) <-
            work.(p) +. cost.Cost_model.edge_scan_s
            +. (float_of_int !probes *. cost.Cost_model.intersect_probe_s)
        end
      done
    done;
    stage ~step:2 { c with Pricer.active_edges = !active }
  end;

  (* Stage 4 — reduce per-vertex counts back at the masters. *)
  begin
    let c = Pricer.begin_step pr ~step:3 in
    let work = c.Pricer.work and bytes_out = c.Pricer.bytes_out in
    let groups = ref 0 and remote = ref 0 in
    for v = 0 to n - 1 do
      let mexec = pex.(master.(v)) in
      for i = route_off.(v) to route_off.(v + 1) - 1 do
        let q = route_parts.(i) in
        let qexec = pex.(q) in
        incr groups;
        work.(q) <- work.(q) +. cost.Cost_model.msg_serialize_s;
        if qexec <> mexec then begin
          incr remote;
          bytes_out.(qexec) <-
            bytes_out.(qexec) +. float_of_int (8 + cost.Cost_model.msg_wire_overhead_bytes)
        end
      done
    done;
    stage ~step:3
      {
        c with
        Pricer.messages = !groups;
        shuffle_groups = !groups;
        remote_shuffles = !remote;
        updated = n;
      }
  end;

  let total = Array.fold_left ( + ) 0 counts / 3 in
  let trace = Pricer.finish pr ~outcome:Trace.Completed ~peak_executor_bytes:0.0 in
  { per_vertex = counts; total; trace }
