(** Synchronous gather–apply–scatter engine (PowerGraph semantics).

    The paper's related work (Verma et al.) compares partitioning
    strategies across GraphX, PowerGraph and PowerLyra and finds that no
    single strategy wins everywhere; this engine runs the same
    vertex-cut partitioned graph under PowerGraph's execution model so
    the repo can reproduce that cross-engine comparison:

    - {b gather}: every active vertex pulls a contribution from each of
      its (in/out/both) edges; contributions are pre-aggregated inside
      each edge partition (at the vertex's mirrors) and the partial sums
      are shipped to the master — communication proportional to the
      {e active} vertices' replica counts, unlike Pregel's
      changed-vertex broadcast;
    - {b apply}: the master combines the partials and computes the new
      state, deciding whether the vertex stays active;
    - {b scatter}: changed state is shipped back to all mirrors and the
      vertex's neighbours are signalled (re-activated), GraphLab-style,
      so data-driven programs propagate even when [apply] deactivates
      the vertex itself.

    Each superstep's counts are priced by the same {!Pricer} as
    {!Pregel}'s (makespan with jitter, overlapped network, task
    overheads, driver lineage), so times from the two engines are
    directly comparable. Executor memory is not modeled. *)

type direction = Gather_in | Gather_out | Gather_both

type ('v, 'g) program = {
  init : int -> 'v;  (** initial vertex state *)
  direction : direction;  (** which incident edges a vertex gathers over *)
  gather :
    src:int -> dst:int -> src_attr:'v -> dst_attr:'v -> target:int -> 'g option;
      (** contribution of one edge to [target] (one of its endpoints);
          [None] contributes nothing *)
  sum : 'g -> 'g -> 'g;  (** commutative, associative combiner *)
  apply : int -> 'v -> 'g option -> 'v * bool;
      (** new state from the gathered total ([None] if no edge
          contributed) and whether the vertex stays active *)
  state_bytes : int;
  gather_bytes : int;
}

type 'v result = { attrs : 'v array; trace : Trace.t }

val run :
  ?max_iterations:int ->
  ?scale:float ->
  ?cost:Cost_model.t ->
  ?what_if:Pricer.what_if ->
  ?telemetry:Cutfit_obs.Telemetry.t ->
  cluster:Cluster.t ->
  Pgraph.t ->
  ('v, 'g) program ->
  'v result
(** Run until no vertex remains active or [max_iterations] (default
    500). All vertices start active. [telemetry] streams one
    {!Cutfit_obs.Event.Superstep} per stage and a closing [Run_end]
    labelled ["gas"], exactly as {!Pregel.run} does. [what_if]:
    {!Pricer.what_if}; it never changes the converged attributes. *)
