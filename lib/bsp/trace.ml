module Event = Cutfit_obs.Event

type superstep = Event.superstep
type recovery = Event.recovery
type speculation = Event.speculation
type reshuffle = Event.reshuffle

type outcome = Completed | Max_supersteps | Out_of_memory | Aborted

type t = {
  supersteps : superstep list;
  load_s : float;
  checkpoint_s : float;
  checkpoints : int;
  recoveries : recovery list;
  faults_injected : int;
  speculations : speculation list;
  reshuffles : reshuffle list;
  total_s : float;
  outcome : outcome;
  peak_executor_bytes : float;
  driver_meta_bytes : float;
}

let num_supersteps t = List.length t.supersteps
let total_messages t =
  List.fold_left (fun acc (s : superstep) -> acc + s.messages) 0 t.supersteps

let total_remote_messages t =
  List.fold_left
    (fun acc (s : superstep) -> acc + s.remote_shuffles + s.remote_broadcasts)
    0 t.supersteps

(* Every float total folds its records from 0.0 in record order. *)
let sum f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l
let sum_steps f t = sum f t.supersteps
let total_wire_bytes = sum_steps (fun s -> s.wire_bytes)
let total_network_s = sum_steps (fun s -> s.network_s)
let total_compute_s = sum_steps (fun s -> s.compute_s)
let total_overhead_s = sum_steps (fun s -> s.overhead_s)
let num_recoveries t = List.length t.recoveries
let num_speculations t = List.length t.speculations
let recovery_s t = sum (fun (r : recovery) -> r.recovery_s) t.recoveries
let speculation_s t = sum (fun (s : speculation) -> s.compute_s) t.speculations
let reshuffle_s t = sum (fun (r : reshuffle) -> r.reshuffle_s) t.reshuffles

let speculation_wins t =
  List.fold_left (fun acc (s : speculation) -> if s.won then acc + 1 else acc) 0 t.speculations

let num_reshuffles t = List.length t.reshuffles

let total_reshuffle_wire_bytes t =
  List.fold_left
    (fun acc (r : reshuffle) -> acc +. r.moved_bytes +. r.rebroadcast_bytes)
    0.0 t.reshuffles

let completed t = match t.outcome with Out_of_memory | Aborted -> false | Completed | Max_supersteps -> true

let outcome_name = function
  | Completed -> "completed"
  | Max_supersteps -> "max-supersteps"
  | Out_of_memory -> "out-of-memory"
  | Aborted -> "aborted"

let pp_summary ppf t =
  let outcome =
    match t.outcome with
    | Out_of_memory -> "OUT-OF-MEMORY"
    | Aborted -> "ABORTED"
    | o -> outcome_name o
  in
  Format.fprintf ppf "%s in %d supersteps, %.2fs total (load %.2fs, compute %.2fs, net %.2fs, ovh %.2fs%s%s%s%s)"
    outcome (num_supersteps t) t.total_s t.load_s (total_compute_s t) (total_network_s t)
    (total_overhead_s t)
    (if t.checkpoints > 0 then Printf.sprintf ", %d ckpt %.2fs" t.checkpoints t.checkpoint_s
     else "")
    (if t.recoveries <> [] || t.faults_injected > 0 then
       Printf.sprintf ", %d fault(s) %d recover(ies) %.2fs" t.faults_injected
         (num_recoveries t) (recovery_s t)
     else "")
    (if t.speculations <> [] then
       Printf.sprintf ", %d speculation(s) (%d won) %.2fs extra compute" (num_speculations t)
         (speculation_wins t) (speculation_s t)
     else "")
    (if t.reshuffles <> [] then
       Printf.sprintf ", %d reshuffle(s) %.2fs" (num_reshuffles t) (reshuffle_s t)
     else "")
