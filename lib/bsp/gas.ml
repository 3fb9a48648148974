module Graph = Cutfit_graph.Graph

type direction = Gather_in | Gather_out | Gather_both

type ('v, 'g) program = {
  init : int -> 'v;
  direction : direction;
  gather :
    src:int -> dst:int -> src_attr:'v -> dst_attr:'v -> target:int -> 'g option;
  sum : 'g -> 'g -> 'g;
  apply : int -> 'v -> 'g option -> 'v * bool;
  state_bytes : int;
  gather_bytes : int;
}

type 'v result = { attrs : 'v array; trace : Trace.t }

let run ?(max_iterations = 500) ?(scale = 1.0) ?(cost = Cost_model.default) ?what_if ?telemetry
    ~cluster pg program =
  let g = Pgraph.graph pg in
  let n = Graph.num_vertices g in
  let num_partitions = Pgraph.num_partitions pg in
  if cluster.Cluster.num_partitions <> num_partitions then
    invalid_arg "Gas.run: cluster and partitioned graph disagree on partition count";
  let pr =
    Pricer.create ~scale ~cost ?what_if ?telemetry ~label:"gas" ~state_bytes:program.state_bytes
      ~cluster pg
  in
  let ert = Pricer.runtime pr in
  (* The executor of every partition under the live membership, read
     per message. [Pricer.begin_step] may change the membership, so
     the array is refreshed after each one. *)
  let pex = Array.make num_partitions 0 in
  let refresh_placement () =
    for p = 0 to num_partitions - 1 do
      pex.(p) <- Elastic.exec_of ert p
    done
  in
  let master = Pgraph.masters pg in
  let part_off = Pgraph.part_off pg and part_edges = Pgraph.part_edges pg in
  let route_off = Pgraph.route_off pg and route_parts = Pgraph.route_parts pg in
  let gsrc = Graph.src_array g and gdst = Graph.dst_array g in

  let attrs = Array.init n program.init in
  let active = Bytes.make n '\001' in
  let is_active v = Bytes.unsafe_get active v <> '\000' in
  let acc : 'g option array = Array.make n None in
  let touched = ref [] in
  (* Partition-local pre-aggregation scratch, flushed into [acc] in
     ascending partition order after each partition's scan — the same
     fixed reduction order as the Pregel engine and the Csr kernels. *)
  let plocal : 'g option array = Array.make n None in
  let ptouched = ref [] in
  let last_part = Array.make n (-1) in
  let last_step = Array.make n (-1) in

  let gather_wire = float_of_int (program.gather_bytes + cost.Cost_model.msg_wire_overhead_bytes) in
  let attr_wire = float_of_int (program.state_bytes + cost.Cost_model.msg_wire_overhead_bytes) in

  Pricer.build pr;

  let step = ref 0 in
  let outcome = ref None in
  while Option.is_none !outcome do
    let c = Pricer.begin_step pr ~step:!step in
    refresh_placement ();
    let work = c.Pricer.work and bytes_out = c.Pricer.bytes_out and bytes_in = c.Pricer.bytes_in in
    let active_edges = ref 0 and messages = ref 0 in
    let shuffle_groups = ref 0 and remote_shuffles = ref 0 in
    touched := [];
    (* Gather: mirrors pre-aggregate per partition; one partial sum per
       (vertex, partition) ships to the master. *)
    for p = 0 to num_partitions - 1 do
      let pexec = pex.(p) in
      let contribute target value =
        incr messages;
        work.(p) <- work.(p) +. cost.Cost_model.msg_merge_s;
        (match plocal.(target) with
        | None ->
            plocal.(target) <- Some value;
            ptouched := target :: !ptouched
        | Some g0 -> plocal.(target) <- Some (program.sum g0 value));
        if last_step.(target) <> !step || last_part.(target) <> p then begin
          last_step.(target) <- !step;
          last_part.(target) <- p;
          incr shuffle_groups;
          work.(p) <- work.(p) +. cost.Cost_model.msg_serialize_s;
          let mp = master.(target) in
          let mexec = pex.(mp) in
          if mexec <> pexec then begin
            incr remote_shuffles;
            bytes_out.(pexec) <- bytes_out.(pexec) +. gather_wire;
            bytes_in.(mexec) <- bytes_in.(mexec) +. gather_wire;
            work.(mp) <- work.(mp) +. cost.Cost_model.msg_serialize_s
          end
        end
      in
      for i = part_off.(p) to part_off.(p + 1) - 1 do
        let e = part_edges.(i) in
        let src = gsrc.(e) and dst = gdst.(e) in
        let dst_gathers =
          (program.direction = Gather_in || program.direction = Gather_both) && is_active dst
        in
        let src_gathers =
          (program.direction = Gather_out || program.direction = Gather_both) && is_active src
        in
        if dst_gathers || src_gathers then begin
          incr active_edges;
          work.(p) <- work.(p) +. cost.Cost_model.edge_scan_s;
          let emit target =
            match
              program.gather ~src ~dst ~src_attr:attrs.(src) ~dst_attr:attrs.(dst) ~target
            with
            | Some v -> contribute target v
            | None -> ()
          in
          if dst_gathers then emit dst;
          if src_gathers then emit src
        end
        else work.(p) <- work.(p) +. cost.Cost_model.edge_skip_s
      done;
      (* Flush the partition's partial sums into the master-side
         accumulator; each vertex holds at most one partial per
         partition, so the per-vertex cross-partition sum is a left fold
         over ascending partition indices. *)
      List.iter
        (fun target ->
          (match plocal.(target) with
          | None -> assert false
          | Some value -> (
              match acc.(target) with
              | None ->
                  acc.(target) <- Some value;
                  touched := target :: !touched
              | Some g0 -> acc.(target) <- Some (program.sum g0 value)));
          plocal.(target) <- None)
        !ptouched;
      ptouched := []
    done;
    (* Apply at masters: every active vertex recomputes, whether or not
       an edge contributed. Scatter ships changed state to mirrors. *)
    let updated = ref 0 and bcast = ref 0 and remote_bcast = ref 0 in
    let next_active = Bytes.make n '\000' in
    let apply_vertex v =
      let total = acc.(v) in
      acc.(v) <- None;
      let state, stay = program.apply v attrs.(v) total in
      let changed = state <> attrs.(v) in
      attrs.(v) <- state;
      if stay then Bytes.unsafe_set next_active v '\001';
      let mp = master.(v) in
      work.(mp) <- work.(mp) +. cost.Cost_model.vprog_s;
      if changed then begin
        incr updated;
        let mexec = pex.(mp) in
        for i = route_off.(v) to route_off.(v + 1) - 1 do
          let qexec = pex.(route_parts.(i)) in
          incr bcast;
          work.(mp) <- work.(mp) +. cost.Cost_model.msg_serialize_s;
          if qexec <> mexec then begin
            incr remote_bcast;
            bytes_out.(mexec) <- bytes_out.(mexec) +. attr_wire;
            bytes_in.(qexec) <- bytes_in.(qexec) +. attr_wire
          end
        done;
        (* Scatter signals the neighbours, GraphLab-style, so data-driven
           programs (stay = false) still propagate. *)
        let signal u = Bytes.unsafe_set next_active u '\001' in
        Graph.iter_out g v signal;
        Graph.iter_in g v signal
      end
    in
    for v = 0 to n - 1 do
      if is_active v then apply_vertex v
    done;
    (* Vertices that only received contributions (inactive but pulled
       into this round by an active neighbour) do not apply in pure
       sync-GAS; clear their leftovers. *)
    List.iter (fun v -> acc.(v) <- None) !touched;
    Bytes.blit next_active 0 active 0 n;
    let verdict =
      Pricer.superstep pr ~step:!step
        {
          c with
          Pricer.active_edges = !active_edges;
          messages = !messages;
          shuffle_groups = !shuffle_groups;
          remote_shuffles = !remote_shuffles;
          updated = !updated;
          bcast = !bcast;
          remote_bcast = !remote_bcast;
        }
    in
    let any_active =
      let rec scan v = v < n && (is_active v || scan (v + 1)) in
      scan 0
    in
    outcome :=
      if Option.is_some verdict then verdict
      else if not any_active then Some Trace.Completed
      else if !step + 1 >= max_iterations then Some Trace.Max_supersteps
      else begin
        incr step;
        None
      end
  done;
  (* Executor memory is not modeled for GAS runs. *)
  { attrs; trace = Pricer.finish pr ~outcome:(Option.get !outcome) ~peak_executor_bytes:0.0 }
