module Splitmix64 = Cutfit_prng.Splitmix64

type config = { threshold : float; seed : int }

let config ?(threshold = 2.0) ?(seed = 1) () =
  if not (Float.is_finite threshold && threshold >= 1.0) then
    Spec_error.fail ~dsl:"speculation" "threshold must be finite and >= 1, got %g" threshold;
  { threshold; seed }

(* Median executor busy time, nearest-rank (same convention as
   Stats.percentiles): the trigger baseline Spark's speculation uses. *)
let median busy = (Cutfit_stats.Summary.percentiles busy).Cutfit_stats.Summary.p50

(* Host ties are broken by a stateless splitmix64 draw keyed (seed,
   step) — never wall-clock or [Random] — so replays and the run-twice
   digest harness see the same clone placement. *)
let tie_break ~seed ~step n =
  Splitmix64.draw_mod
    (Splitmix64.draw ~seed ~salt:(step + 2) ~k:Splitmix64.finalizer_key)
    n

let pick_host ~seed ~step ~straggler busy =
  let best = ref infinity in
  Array.iteri (fun e b -> if e <> straggler && b < !best then best := b) busy;
  let ties = ref [] in
  for e = Array.length busy - 1 downto 0 do
    if e <> straggler && busy.(e) = !best then ties := e :: !ties
  done;
  match !ties with
  | [ e ] -> e
  | ties -> List.nth ties (tie_break ~seed ~step (List.length ties))

let evaluate cfg ~cost ~bandwidth ~step ~busy ~clean_busy ~ingress ~partitions =
  let executors = Array.length busy in
  if executors < 2 then (busy, None)
  else begin
    (* Straggler = the slowest executor (lowest index on a tie, which is
       deterministic because Array.iteri scans in order). *)
    let straggler = ref 0 in
    Array.iteri (fun e b -> if b > busy.(!straggler) then straggler := e) busy;
    let s = !straggler in
    let med = median busy in
    if med <= 0.0 || busy.(s) <= cfg.threshold *. med then (busy, None)
    else begin
      let host = pick_host ~seed:cfg.seed ~step ~straggler:s busy in
      (* The clone re-runs the straggler's tasks at the host's clean
         speed: same jittered work, none of the fault stretch. Before it
         can start, the driver round-trips a launch RPC, re-dispatches
         the straggler's tasks, and the host re-fetches the straggler's
         shuffle ingress — traffic charged outside the wire-payload law,
         exactly like recovery traffic. *)
      let launch_s =
        cost.Cost_model.speculation_rpc_s
        +. (float_of_int partitions.(s) *. cost.Cost_model.task_dispatch_s)
      in
      let reshuffle_bytes = ingress.(s) in
      let reshuffle_s = reshuffle_bytes /. bandwidth in
      let clone_compute = clean_busy.(s) in
      let clone_busy = busy.(host) +. launch_s +. reshuffle_s +. clone_compute in
      let won = clone_busy < busy.(s) in
      let busy' = Array.copy busy in
      if won then begin
        (* The earlier finisher wins: the original attempt is killed the
           moment the clone's results land, so both executors free up at
           the clone's finish time. *)
        busy'.(s) <- clone_busy;
        busy'.(host) <- clone_busy
      end
      else
        (* The original finishes first; the clone is killed then, having
           occupied the host until that point. The step's makespan is
           unchanged — speculation only wasted resources. *)
        busy'.(host) <- busy.(s);
      let record =
        {
          Cutfit_obs.Event.step;
          executor = s;
          host;
          cloned_partitions = partitions.(s);
          original_busy_s = busy.(s);
          clone_busy_s = clone_busy;
          wire_bytes = reshuffle_bytes;
          compute_s = clone_compute;
          won;
          saved_s = (if won then busy.(s) -. clone_busy else 0.0);
        }
      in
      (busy', Some record)
    end
  end
