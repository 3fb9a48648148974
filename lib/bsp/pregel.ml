module Graph = Cutfit_graph.Graph

type direction = To_src | To_dst

type ('v, 'm) program = {
  init : int -> 'v;
  initial_msg : 'm;
  vprog : int -> 'v -> 'm -> 'v;
  send :
    edge:int ->
    src:int ->
    dst:int ->
    src_attr:'v ->
    dst_attr:'v ->
    emit:(direction -> 'm -> unit) ->
    unit;
  merge : 'm -> 'm -> 'm;
  state_bytes : int;
  msg_bytes : int;
}

type 'v result = { attrs : 'v array; trace : Trace.t }

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
  let iter t f =
    for i = 0 to t.len - 1 do
      f t.data.(i)
    done
  let length t = t.len
end

let run ?(max_supersteps = 500) ?(scale = 1.0) ?(cost = Cost_model.default) ?checkpoint_every
    ?faults ?speculation ?elastic ?hetero ?telemetry ~cluster pg program =
  let g = Pgraph.graph pg in
  let n = Graph.num_vertices g in
  let num_partitions = Pgraph.num_partitions pg in
  if cluster.Cluster.num_partitions <> num_partitions then
    invalid_arg "Pregel.run: cluster and partitioned graph disagree on partition count";
  let pr =
    Pricer.create ~scale ~cost ?checkpoint_every ?faults ?speculation ?elastic ?hetero ?telemetry
      ~label:"pregel" ~state_bytes:program.state_bytes ~cluster pg
  in
  let ert = Pricer.runtime pr in
  let exec_of p = Elastic.exec_of ert p in

  let attrs = Array.init n program.init in
  let active = Bytes.make n '\000' in
  let is_active v = Bytes.unsafe_get active v <> '\000' in
  let msg : 'm option array = Array.make n None in
  let touched = Ivec.create () in
  (* Partition-local combiner scratch: messages emitted while one
     partition's edges are scanned merge here first (in edge order),
     then flush into the master-side accumulator [msg] in ascending
     partition order. This fixes the cross-partition reduction order
     per partition index — the order the parallel {!Csr} kernels
     reproduce, which is what makes boxed and CSR results bit-identical
     for non-associative float merges. *)
  let plocal : 'm option array = Array.make n None in
  let ptouched = Ivec.create () in
  let last_part = Array.make n (-1) in
  let last_step = Array.make n (-1) in

  (* Per-executor static working set (the cached graph), paper-scale,
     against the initial placement. It never changes during a run, so
     the executor-memory check is loop-invariant. *)
  let resident = Array.make cluster.Cluster.executors 0.0 in
  for p = 0 to num_partitions - 1 do
    let e = exec_of p in
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

  (* One superstep of vertex-side work shared by superstep 0 and the
     main loop: run vprog on [vertices], then broadcast the updated
     attributes along the routing table, charging work and bytes. *)
  let apply_and_broadcast ~work ~bytes_out ~bytes_in ~run_vprog vertices =
    let updated = ref 0 and bcast = ref 0 and remote_bcast = ref 0 in
    vertices (fun v ->
        incr updated;
        (if run_vprog then
           let mp = Pgraph.master pg v in
           work.(mp) <- work.(mp) +. cost.Cost_model.vprog_s);
        let mp = Pgraph.master pg v in
        let mexec = exec_of mp in
        Pgraph.iter_replicas pg v (fun q ->
            incr bcast;
            work.(mp) <- work.(mp) +. cost.Cost_model.msg_serialize_s;
            if exec_of q <> mexec then begin
              incr remote_bcast;
              bytes_out.(mexec) <- bytes_out.(mexec) +. attr_wire_bytes;
              bytes_in.(exec_of q) <- bytes_in.(exec_of q) +. attr_wire_bytes
            end));
    (!updated, !bcast, !remote_bcast)
  in

  Pricer.build pr;

  (* Superstep 0: vprog everywhere with the initial message, then a full
     broadcast materializes the replicated vertex views. *)
  let outcome =
    let c = Pricer.begin_step pr ~step:0 in
    for v = 0 to n - 1 do
      attrs.(v) <- program.vprog v attrs.(v) program.initial_msg;
      Bytes.unsafe_set active v '\001'
    done;
    let updated, bcast, remote_bcast =
      apply_and_broadcast ~work:c.Pricer.work ~bytes_out:c.Pricer.bytes_out
        ~bytes_in:c.Pricer.bytes_in ~run_vprog:true (fun f ->
          for v = 0 to n - 1 do
            f v
          done)
    in
    ref (Pricer.superstep pr ~step:0 { c with Pricer.updated; bcast; remote_bcast })
  in

  let step = ref 1 in
  while Option.is_none !outcome do
    let c = Pricer.begin_step pr ~step:!step in
    let work = c.Pricer.work and bytes_out = c.Pricer.bytes_out and bytes_in = c.Pricer.bytes_in in
    let active_edges = ref 0 and messages = ref 0 in
    let shuffle_groups = ref 0 and remote_shuffles = ref 0 in
    Ivec.clear touched;
    (* Message generation, partition by partition. *)
    for p = 0 to num_partitions - 1 do
      let pexec = exec_of p in
      let cur_src = ref 0 and cur_dst = ref 0 in
      let emit dir m =
        let v = match dir with To_src -> !cur_src | To_dst -> !cur_dst in
        incr messages;
        work.(p) <- work.(p) +. cost.Cost_model.msg_merge_s;
        (match plocal.(v) with
        | None ->
            plocal.(v) <- Some m;
            Ivec.push ptouched v
        | Some m0 -> plocal.(v) <- Some (program.merge m0 m));
        (* Count one shuffle aggregate per (vertex, partition) pair. *)
        if last_step.(v) <> !step || last_part.(v) <> p then begin
          last_step.(v) <- !step;
          last_part.(v) <- p;
          incr shuffle_groups;
          let mp = Pgraph.master pg v in
          work.(p) <- work.(p) +. cost.Cost_model.msg_serialize_s;
          if exec_of mp <> pexec then begin
            incr remote_shuffles;
            bytes_out.(pexec) <- bytes_out.(pexec) +. msg_wire_bytes;
            bytes_in.(exec_of mp) <- bytes_in.(exec_of mp) +. msg_wire_bytes;
            work.(mp) <- work.(mp) +. cost.Cost_model.msg_serialize_s
          end
        end
      in
      Pgraph.iter_partition_edges pg p (fun ~edge ~src ~dst ->
          if is_active src || is_active dst then begin
            incr active_edges;
            work.(p) <- work.(p) +. cost.Cost_model.edge_scan_s;
            cur_src := src;
            cur_dst := dst;
            program.send ~edge ~src ~dst ~src_attr:attrs.(src) ~dst_attr:attrs.(dst) ~emit
          end
          else work.(p) <- work.(p) +. cost.Cost_model.edge_skip_s);
      (* Flush this partition's combined partials into the master-side
         accumulator. Partitions are visited in ascending order, so each
         vertex's cross-partition merge is a left fold over ascending
         partition indices; within a flush, vertices appear in
         first-touch (edge) order, which keeps the global [touched]
         order identical to direct per-message merging. *)
      Ivec.iter ptouched (fun v ->
          (match plocal.(v) with
          | None -> assert false
          | Some m -> (
              match msg.(v) with
              | None ->
                  msg.(v) <- Some m;
                  Ivec.push touched v
              | Some m0 -> msg.(v) <- Some (program.merge m0 m)));
          plocal.(v) <- None);
      Ivec.clear ptouched
    done;
    (* Vertex programs at masters, then replica refresh. *)
    Bytes.fill active 0 n '\000';
    Ivec.iter touched (fun v ->
        (match msg.(v) with
        | Some m -> attrs.(v) <- program.vprog v attrs.(v) m
        | None -> assert false);
        msg.(v) <- None;
        Bytes.unsafe_set active v '\001');
    (* The state transition happened above (so broadcast ships the new
       values); apply_and_broadcast only charges the vprog cost and the
       replica refresh. *)
    let updated, bcast, remote_bcast =
      apply_and_broadcast ~work ~bytes_out ~bytes_in ~run_vprog:true (fun f ->
          Ivec.iter touched f)
    in
    let verdict =
      Pricer.superstep pr ~step:!step
        {
          c with
          Pricer.active_edges = !active_edges;
          messages = !messages;
          shuffle_groups = !shuffle_groups;
          remote_shuffles = !remote_shuffles;
          updated;
          bcast;
          remote_bcast;
        }
    in
    outcome :=
      if exec_oom then Some Trace.Out_of_memory
      else if Option.is_some verdict then verdict
      else if Ivec.length touched = 0 then Some Trace.Completed
      else if !step >= max_supersteps then Some Trace.Max_supersteps
      else begin
        incr step;
        None
      end
  done;
  (* Only this engine models executor memory: GAS and triangle counting
     report a zero peak. *)
  let trace =
    Pricer.finish pr ~outcome:(Option.get !outcome) ~peak_executor_bytes:exec_peak
  in
  { attrs; trace }
