module Graph = Cutfit_graph.Graph
module Obs = Cutfit_obs
module Event = Cutfit_obs.Event

type counts = {
  work : float array;
  bytes_out : float array;
  bytes_in : float array;
  active_edges : int;
  messages : int;
  shuffle_groups : int;
  remote_shuffles : int;
  updated : int;
  bcast : int;
  remote_bcast : int;
}

type what_if = {
  checkpoint_every : int option;
  faults : Faults.config option;
  speculation : Speculation.config option;
  elastic : Elastic.config option;
  hetero : Elastic.hetero option;
}

let static =
  { checkpoint_every = None; faults = None; speculation = None; elastic = None; hetero = None }

type t = {
  label : string;
  pg : Pgraph.t;
  cluster : Cluster.t;
  cost : Cost_model.t;
  scale : float;
  checkpoint_every : int option;
  speculation : Speculation.config option;
  telemetry : Obs.Telemetry.t option;
  ert : Elastic.runtime;
  fsession : Faults.session option;
  state_bytes : int;
  attr_wire_bytes : float;
  graph_bytes : float;
  checkpoint_io_s : float;  (** writing or reading back one checkpoint image *)
  load_s : float;
  mutable parts_per_exec : int array;
  mutable exec_parts : int array array;
      (** each live executor's partitions, descending: the order its
          makespan sums their work in *)
  mutable exec_work : float array array;  (** per-executor scratch for that sum *)
  mutable steps : Trace.superstep list;  (** newest first *)
  mutable driver_meta : float;
  mutable checkpoint_s : float;
  mutable checkpoints : int;
  mutable last_ckpt : int option;
  mutable recoveries : Trace.recovery list;  (** newest first *)
  mutable faults_injected : int;
  mutable speculations : Trace.speculation list;  (** newest first *)
  mutable reshuffles : Trace.reshuffle list;  (** newest first *)
}

let runtime t = t.ert
let exec_of t p = Elastic.exec_of t.ert p
let num_partitions t = Pgraph.num_partitions t.pg

let emit t event =
  match t.telemetry with None -> () | Some h -> Obs.Telemetry.emit h event

let sum f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l

(* Recomputed only when the live membership changes. *)
let place t =
  let counts = Array.make (Elastic.live t.ert) 0 in
  for p = 0 to num_partitions t - 1 do
    counts.(exec_of t p) <- counts.(exec_of t p) + 1
  done;
  let parts = Array.map (fun k -> Array.make k 0) counts in
  let fill = Array.make (Elastic.live t.ert) 0 in
  for p = num_partitions t - 1 downto 0 do
    let e = exec_of t p in
    parts.(e).(fill.(e)) <- p;
    fill.(e) <- fill.(e) + 1
  done;
  t.parts_per_exec <- counts;
  t.exec_parts <- parts;
  t.exec_work <- Array.map (fun k -> Array.make k 0.0) counts

let create ?(scale = 1.0) ?(cost = Cost_model.default) ?(what_if = static) ?telemetry ~label
    ~state_bytes ~cluster pg =
  let { checkpoint_every; faults; speculation; elastic; hetero } = what_if in
  (match checkpoint_every with
  | Some k when k < 1 -> invalid_arg "Pricer.create: checkpoint_every must be >= 1"
  | _ -> ());
  let g = Pgraph.graph pg in
  let executors = cluster.Cluster.executors in
  let graph_bytes =
    scale
    *. (float_of_int (Graph.num_edges g * cost.Cost_model.edge_object_bytes)
       +. float_of_int (Graph.num_vertices g * (cost.Cost_model.vertex_object_bytes + state_bytes)))
  in
  let t =
    {
      label;
      pg;
      cluster;
      cost;
      scale;
      checkpoint_every;
      speculation;
      telemetry;
      (* Placement is consulted through the elastic runtime: with no
         scale events it is the static round robin [p mod executors];
         with them, the round-robin target tracks the live membership. *)
      ert = Elastic.runtime ?config:elastic ?hetero ~executors ();
      fsession = Option.map (Faults.session ~executors) faults;
      state_bytes;
      attr_wire_bytes = float_of_int (state_bytes + cost.Cost_model.msg_wire_overhead_bytes);
      (* Writing the materialized graph to the storage tier truncates
         the driver's lineage — Spark's standard fix for long Pregel
         runs. *)
      graph_bytes;
      checkpoint_io_s =
        graph_bytes /. (float_of_int executors *. Cluster.storage_bytes_per_s cluster);
      load_s =
        scale
        *. float_of_int (Cutfit_graph.Graph_io.size_bytes g)
        /. (float_of_int executors *. Cluster.storage_bytes_per_s cluster);
      parts_per_exec = [||];
      exec_parts = [||];
      exec_work = [||];
      steps = [];
      driver_meta = 0.0;
      checkpoint_s = 0.0;
      checkpoints = 0;
      last_ckpt = None;
      recoveries = [];
      faults_injected = 0;
      speculations = [];
      reshuffles = [];
    }
  in
  place t;
  t

let fresh t =
  let max_execs = Elastic.max_executors t.ert in
  {
    work = Array.make (num_partitions t) 0.0;
    bytes_out = Array.make max_execs 0.0;
    bytes_in = Array.make max_execs 0.0;
    active_edges = 0;
    messages = 0;
    shuffle_groups = 0;
    remote_shuffles = 0;
    updated = 0;
    bcast = 0;
    remote_bcast = 0;
  }

(* Each record is stored once and the same value goes to the sinks. *)
let push_recovery t r =
  t.recoveries <- r :: t.recoveries;
  emit t (Event.Recovery r)

(* Recovery pricing. Each record's traffic lands in its own
   [wire_bytes], deliberately outside the supersteps' [wire_bytes], so
   the wire-payload law still holds on faulty runs. *)
let recovery ~step ~kind ~executor ?(replayed_steps = 0) ?(lost_edges = 0)
    ?(lost_replicas = 0) ~wire recovery_s =
  {
    Event.step;
    kind;
    executor;
    replayed_steps;
    lost_edges;
    lost_replicas;
    wire_bytes = wire;
    recovery_s;
  }

(* A replacement for [executor] rebuilds exactly its edge partitions
   from lineage: re-shuffle their edges in, re-materialize the local
   structures, then re-broadcast every vertex view it hosted — cost
   proportional to the replicas the cut placed there. A spot preemption
   ([kind = "preempt"]) first waits out [backoff_s] of capped
   reacquisition retries; membership is unchanged. *)
let rebuild_recovery t ~step ~kind ~executor ~backoff_s =
  let cost = t.cost and scale = t.scale in
  let lost_edges = ref 0 and lost_vertices = ref 0 in
  for p = 0 to num_partitions t - 1 do
    if exec_of t p = executor then begin
      lost_edges := !lost_edges + Pgraph.num_edges_of_partition t.pg p;
      lost_vertices := !lost_vertices + Pgraph.local_vertices t.pg p
    end
  done;
  let rebuild =
    scale
    *. ((float_of_int !lost_edges *. cost.Cost_model.build_edge_s)
       +. (float_of_int !lost_vertices *. cost.Cost_model.build_vertex_s))
    /. float_of_int t.cluster.Cluster.cores_per_executor
  in
  let reshuffle_bytes =
    scale *. float_of_int !lost_edges *. float_of_int cost.Cost_model.shuffle_edge_bytes
  in
  let wire = reshuffle_bytes +. (scale *. float_of_int !lost_vertices *. t.attr_wire_bytes) in
  recovery ~step ~kind ~executor ~lost_edges:!lost_edges ~lost_replicas:!lost_vertices ~wire
    (backoff_s +. rebuild
    +. (wire /. Cluster.network_bytes_per_s t.cluster)
    +. cost.Cost_model.superstep_barrier_s)

(* Scale events scheduled before compute superstep [step]: membership
   changes re-home partitions with a priced re-shuffle; spot
   preemptions are priced as involuntary crashes (membership
   unchanged). Both are pure re-accounting — the vertex values never
   move. *)
let begin_step t ~step =
  let cost = t.cost and pg = t.pg in
  Elastic.step_events t.ert ~step ~num_partitions:(num_partitions t)
    ~partition_bytes:(fun p ->
      t.scale
      *. (float_of_int (Pgraph.num_edges_of_partition pg p * cost.Cost_model.edge_object_bytes)
         +. float_of_int
              (Pgraph.local_vertices pg p
              * (cost.Cost_model.vertex_object_bytes + t.state_bytes))))
    ~partition_vertices:(fun p -> Pgraph.local_vertices pg p)
    ~attr_wire_bytes:t.attr_wire_bytes ~scale:t.scale
    ~bandwidth:(Cluster.network_bytes_per_s t.cluster)
    ~barrier_s:cost.Cost_model.superstep_barrier_s
    ~on_reshuffle:(fun change r ->
      place t;
      t.reshuffles <- r :: t.reshuffles;
      let executors = r.Event.executors_after in
      emit t
        (match change with
        | `Join count -> Event.Executor_join { step; count; executors }
        | `Leave count -> Event.Executor_leave { step; count; executors });
      emit t (Event.Reshuffle r))
    ~on_preempt:(fun ~executor ~retries ->
      t.faults_injected <- t.faults_injected + 1;
      emit t
        (Event.Fault_injected
           {
             step;
             kind = "preempt";
             executor;
             detail =
               Printf.sprintf "spot instance preempted, %d reacquisition retr%s" retries
                 (if retries = 1 then "y" else "ies");
           });
      push_recovery t
        (rebuild_recovery t ~step ~kind:"preempt" ~executor
           ~backoff_s:(Cost_model.retry_backoff cost ~retries)));
  fresh t

let take_checkpoint t ~step =
  t.checkpoints <- t.checkpoints + 1;
  t.checkpoint_s <- t.checkpoint_s +. t.checkpoint_io_s;
  t.driver_meta <- 0.0;
  t.last_ckpt <- Some step;
  emit t (Event.Checkpoint { step; bytes = t.graph_bytes; write_s = t.checkpoint_io_s })

(* The time composition of one priced step, recorded on the trace; the
   [Superstep] event carries that same record plus the per-executor
   profile the trace drops. *)
let price t ~step ~(plan : Faults.plan) c =
  let cost = t.cost and scale = t.scale in
  let num_partitions = num_partitions t in
  let executors = t.cluster.Cluster.executors in
  (* Executor compute = makespan of its partitions' jittered work over
     its cores, divided by the host's speed multiplier; an active
     straggler fault stretches its executor on top. *)
  let live = Elastic.live t.ert in
  let jittered = Cost_model.jittered cost ~step c.work in
  let clean_busy = Array.make live 0.0 in
  let busy = Array.make live 0.0 in
  for e = 0 to live - 1 do
    let parts = t.exec_parts.(e) and mine = t.exec_work.(e) in
    for j = 0 to Array.length parts - 1 do
      mine.(j) <- jittered.(parts.(j))
    done;
    clean_busy.(e) <-
      scale
      *. Cost_model.makespan ~work:mine ~cores:t.cluster.Cluster.cores_per_executor
      /. Elastic.speed_of t.ert e;
    (* Fault plans are realized against the initial membership; late
       joiners past that width run fault-free. *)
    let fault_factor = if e < executors then plan.Faults.compute_factor e else 1.0 in
    busy.(e) <- clean_busy.(e) *. fault_factor
  done;
  let bandwidth_eff = Cluster.network_bytes_per_s t.cluster *. plan.Faults.network_factor in
  (* Speculative re-execution of the slowest executor's tasks: decided
     from the same deterministic busy/ingress data the step already
     produced, so it only rewrites the time accounting — the values,
     counters and superstep wire bytes are untouched. *)
  let busy, spec =
    match t.speculation with
    | Some cfg when step >= 1 ->
        Speculation.evaluate cfg ~cost ~bandwidth:bandwidth_eff ~step ~busy ~clean_busy
          ~ingress:(Array.init live (fun e -> scale *. c.bytes_in.(e)))
          ~partitions:t.parts_per_exec
    | _ -> (busy, None)
  in
  let compute = Array.fold_left Float.max 0.0 busy in
  let network = ref 0.0 and wire = ref 0.0 in
  for e = 0 to live - 1 do
    wire := !wire +. (scale *. c.bytes_out.(e));
    let s = scale *. c.bytes_out.(e) /. (bandwidth_eff *. Elastic.bandwidth_of t.ert e) in
    if s > !network then network := s
  done;
  let overhead =
    cost.Cost_model.superstep_barrier_s
    +. (float_of_int num_partitions *. cost.Cost_model.task_dispatch_s)
  in
  t.driver_meta <-
    t.driver_meta +. (float_of_int num_partitions *. cost.Cost_model.driver_meta_per_task_bytes);
  let stats =
    {
      Event.step;
      active_edges = c.active_edges;
      messages = c.messages;
      shuffle_groups = c.shuffle_groups;
      remote_shuffles = c.remote_shuffles;
      updated_vertices = c.updated;
      broadcast_replicas = c.bcast;
      remote_broadcasts = c.remote_bcast;
      wire_bytes = !wire;
      compute_s = compute;
      network_s = !network;
      overhead_s = overhead;
      (* Spark pipelines shuffle fetch with task execution, so wire
         time hides behind compute until it becomes the bottleneck. *)
      time_s = Float.max compute !network +. overhead;
    }
  in
  t.steps <- stats :: t.steps;
  (match t.telemetry with
  | None -> ()
  | Some h ->
      let max_task = ref 0.0 and min_task = ref Float.infinity in
      Array.iter
        (fun w ->
          let w = scale *. w in
          if w > !max_task then max_task := w;
          if w < !min_task then min_task := w)
        jittered;
      Obs.Telemetry.emit h
        (Event.Superstep
           ( stats,
             {
               executor_busy_s = busy;
               barrier_wait_s = Array.map (fun b -> compute -. b) busy;
               max_task_s = !max_task;
               min_task_s = (if num_partitions = 0 then 0.0 else !min_task);
             } )));
  t.faults_injected <- t.faults_injected + List.length plan.Faults.announce;
  List.iter
    (fun (a : Faults.announcement) ->
      emit t
        (Event.Fault_injected
           { step; kind = a.fault_kind; executor = a.fault_executor; detail = a.detail }))
    plan.Faults.announce;
  Option.iter
    (fun s ->
      t.speculations <- s :: t.speculations;
      List.iter (emit t) (Event.speculation_events s))
    spec;
  (* A transient shuffle loss retransmits the executor's egress with
     capped exponential backoff — charged as recovery time, outside the
     superstep's own wire accounting. *)
  match plan.Faults.loss with
  | None -> ()
  | Some (e, retries) ->
      let wire = float_of_int retries *. (scale *. c.bytes_out.(e)) in
      push_recovery t
        (recovery ~step ~kind:"shuffle-retry" ~executor:e ~wire
           ((wire /. Cluster.network_bytes_per_s t.cluster) +. Cost_model.retry_backoff cost ~retries))

(* An executor lost at this step's barrier: recover (rollback replay or
   lineage rebuild of its partitions) or, past the failure budget,
   report an abort. Replay is pure re-accounting — the values were
   already computed — so fault-free and faulty runs stay bit-identical. *)
let recover t ~step ~lost fs =
  (* Crash executors were resolved against the initial membership; fold
     them onto a live executor if leaves shrank the cluster. *)
  let lost = lost mod Elastic.live t.ert in
  match Faults.note_crash fs with
  | `Abort -> true
  | `Recover ->
      push_recovery t
        (match (Faults.session_config fs).Faults.mode with
        | Faults.Rollback ->
            (* All executors restart from the last checkpoint image (or,
               with none yet, re-read the dataset), then replay the
               recorded supersteps since that point at their recorded
               cost. *)
            let replayed =
              match t.last_ckpt with
              | Some c -> List.filter (fun (s : Trace.superstep) -> s.step > c) t.steps
              | None -> t.steps
            in
            let readback = if t.last_ckpt <> None then t.checkpoint_io_s else t.load_s in
            recovery ~step ~kind:"rollback" ~executor:lost
              ~replayed_steps:(List.length replayed)
              ~wire:(sum (fun (s : Trace.superstep) -> s.wire_bytes) replayed)
              (readback +. sum (fun (s : Trace.superstep) -> s.time_s) replayed)
        | Faults.Lineage ->
            rebuild_recovery t ~step ~kind:"lineage" ~executor:lost ~backoff_s:0.0);
      false

let superstep t ~step c =
  let plan = match t.fsession with None -> Faults.neutral | Some s -> Faults.plan s ~step in
  price t ~step ~plan c;
  let hit_driver_limit =
    match t.checkpoint_every with
    | Some k when step >= 1 && step mod k = 0 ->
        take_checkpoint t ~step;
        false
    | _ -> t.driver_meta > t.cluster.Cluster.driver_memory_bytes
  in
  let aborted =
    match (plan.Faults.crash, t.fsession) with
    | Some lost, Some fs -> recover t ~step ~lost fs
    | _ -> false
  in
  if hit_driver_limit then Some Trace.Out_of_memory
  else if aborted then Some Trace.Aborted
  else None

(* Build phase: partitioning shuffles every edge to its partition, then
   each partition materializes its local edge array and vertex table.
   One-time, but a large share of short jobs, as in Spark. *)
let build t =
  let c = fresh t in
  let cost = t.cost in
  let executors = t.cluster.Cluster.executors in
  let edge_wire = float_of_int cost.Cost_model.shuffle_edge_bytes in
  (* Edges arrive from the loading executors; on average
     (executors-1)/executors of them cross the network. *)
  let remote_frac = float_of_int (executors - 1) /. float_of_int executors in
  for p = 0 to num_partitions t - 1 do
    let m_p = float_of_int (Pgraph.num_edges_of_partition t.pg p) in
    let v_p = float_of_int (Pgraph.local_vertices t.pg p) in
    c.work.(p) <- (m_p *. cost.Cost_model.build_edge_s) +. (v_p *. cost.Cost_model.build_vertex_s);
    let e = exec_of t p in
    c.bytes_out.(e) <- c.bytes_out.(e) +. (m_p *. edge_wire *. remote_frac)
  done;
  ignore (superstep t ~step:(-1) c)

(* The trace stores the itemized records; [total_s] is the one sum it
   keeps, folded over them in production order. The golden digests pin
   it bit for bit. *)
let finish t ~outcome ~peak_executor_bytes =
  let supersteps = List.rev t.steps in
  let trace =
    {
      Trace.supersteps;
      load_s = t.load_s;
      checkpoint_s = t.checkpoint_s;
      checkpoints = t.checkpoints;
      recoveries = List.rev t.recoveries;
      faults_injected = t.faults_injected;
      speculations = List.rev t.speculations;
      reshuffles = List.rev t.reshuffles;
      total_s = 0.0;
      outcome;
      peak_executor_bytes;
      driver_meta_bytes = t.driver_meta;
    }
  in
  let total_s =
    List.fold_left
      (fun acc (s : Trace.superstep) -> acc +. s.time_s)
      (t.load_s +. t.checkpoint_s +. Trace.recovery_s trace +. Trace.reshuffle_s trace)
      supersteps
  in
  let trace = { trace with total_s } in
  (match t.telemetry with
  | None -> ()
  | Some h ->
      let reg = Obs.Telemetry.metrics h in
      Obs.Metric.incr (Obs.Metric.counter reg "bsp.runs");
      Obs.Metric.add (Obs.Metric.counter reg "bsp.messages") (Trace.total_messages trace);
      Obs.Metric.add
        (Obs.Metric.counter reg "bsp.remote_messages")
        (Trace.total_remote_messages trace);
      Obs.Metric.record (Obs.Metric.timer reg "bsp.simulated_s") total_s;
      Obs.Metric.set (Obs.Metric.gauge reg "bsp.last_wire_bytes") (Trace.total_wire_bytes trace);
      let compute_steps =
        List.fold_left
          (fun acc (s : Trace.superstep) -> if s.step >= 0 then acc + 1 else acc)
          0 supersteps
      in
      Obs.Metric.add (Obs.Metric.counter reg "bsp.supersteps") compute_steps;
      Obs.Telemetry.emit h
        (Event.Run_end
           {
             label = t.label;
             outcome = Trace.outcome_name outcome;
             supersteps = compute_steps;
             total_s;
             load_s = t.load_s;
             checkpoint_s = t.checkpoint_s;
             recovery_s = Trace.recovery_s trace;
             total_messages = Trace.total_messages trace;
             total_remote = Trace.total_remote_messages trace;
             total_wire_bytes = Trace.total_wire_bytes trace;
           }));
  trace
