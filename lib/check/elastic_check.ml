module Trace = Cutfit_bsp.Trace
module Event = Cutfit_obs.Event

let suite = "elastic"

let equivalence ?(label = "run") ?executors ?num_partitions ~baseline ~elastic ~baseline_attrs
    ~elastic_attrs () =
  let acc = ref [] in
  let bad rule fmt =
    Format.kasprintf (fun d -> acc := Violation.v ~suite ~rule "%s" d :: !acc) fmt
  in
  (* The baseline must be genuinely static — a fixed, homogeneous
     membership with no reshuffles — or the comparison proves nothing. *)
  if baseline.Trace.reshuffles <> [] then
    bad "baseline-elastic" "%s: baseline run carries %d reshuffles (%.3gs)" label
      (List.length baseline.Trace.reshuffles)
      (Trace.reshuffle_s baseline);
  let elastic_valid = Trace.completed elastic in
  (* The core invariant: scale events and host heterogeneity perturb
     only time and locality. An elastic run that completed must have
     converged to bit-identical vertex values. *)
  if elastic_valid && not (String.equal baseline_attrs elastic_attrs) then
    bad "value-divergence" "%s: elastic run's vertex values diverge (baseline %s, elastic %s)"
      label baseline_attrs elastic_attrs;
  (* The logical message structure is membership-invariant: the same
     supersteps fire with the same partition-level counters. The
     executor-level columns (remote counts, wire bytes, every time
     column) legitimately move with placement, so — unlike
     {!Fault_check.equivalence} — they are NOT compared here. *)
  let rec zip_prefix bs es =
    match (bs, es) with
    | _, [] -> ()
    | [], _ :: _ ->
        bad "superstep-mismatch" "%s: elastic run has more supersteps than the baseline" label
    | (b : Trace.superstep) :: bs, (e : Trace.superstep) :: es ->
        let step = e.Event.step in
        if b.Event.step <> step then
          bad "superstep-mismatch" "%s: baseline step %d vs elastic step %d" label b.Event.step
            step
        else if
          b.Event.active_edges <> e.Event.active_edges
          || b.Event.messages <> e.Event.messages
          || b.Event.shuffle_groups <> e.Event.shuffle_groups
          || b.Event.updated_vertices <> e.Event.updated_vertices
          || b.Event.broadcast_replicas <> e.Event.broadcast_replicas
        then
          bad "counter-divergence" "%s: step %d logical counters diverge under scale events" label
            step;
        zip_prefix bs es
  in
  zip_prefix baseline.Trace.supersteps elastic.Trace.supersteps;
  if
    elastic_valid
    && List.length elastic.Trace.supersteps <> List.length baseline.Trace.supersteps
  then
    bad "superstep-mismatch" "%s: elastic run recorded %d stages, baseline %d" label
      (List.length elastic.Trace.supersteps)
      (List.length baseline.Trace.supersteps);
  (* Scale-event conservation: membership evolves as an unbroken chain
     from the initial cluster, and no reshuffle moves more partitions
     than exist. The per-record shape laws (non-zero delta, byte
     non-negativity, itemized time) are {!Trace_check.validate}'s job. *)
  ignore
    (List.fold_left
       (fun prev (r : Trace.reshuffle) ->
         (match prev with
         | Some after when r.Event.executors_before <> after ->
             bad "membership-chain" "%s: step %d reshuffle starts from %d executors, not %d" label
               r.Event.step r.Event.executors_before after
         | None -> (
             match executors with
             | Some e when r.Event.executors_before <> e ->
                 bad "membership-chain" "%s: first reshuffle starts from %d executors, not %d"
                   label r.Event.executors_before e
             | _ -> ())
         | _ -> ());
         (match num_partitions with
         | Some n when r.Event.moved_partitions > n ->
             bad "partition-conservation" "%s: step %d reshuffle moved %d of %d partitions" label
               r.Event.step r.Event.moved_partitions n
         | _ -> ());
         Some r.Event.executors_after)
       None elastic.Trace.reshuffles);
  List.rev !acc
