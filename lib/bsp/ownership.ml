(* Shadow write-ownership recorder for the shadowed CSR kernels.

   Recording must not itself race: every [write]/[read] appends to the
   calling worker's private log (worker-owned state, the same discipline
   the kernels follow), and all checking happens on the driver domain at
   [barrier], after Par_exec's epoch barrier has already ordered the
   workers' writes before our reads. Merging sorts the logs,
   concatenated in worker order, stably by item; an item runs as one
   contiguous call on one worker, so that order — and therefore the
   conflict list — is independent of which domain ran what when.
   Records written before a phase (on worker 0) come first for their
   item. *)

type conflict = {
  epoch : int;
  slot : int;
  rule : string;
  first_item : int;
  second_item : int;
}

(* One packed record: kind (0 = write, 1 = read), item, slot. *)
type log = { mutable buf : int array; mutable len : int }

type t = {
  slots : int;
  workers : int;
  mutable epoch : int;
  w_epoch : int array;
  w_item : int array;
  r_epoch : int array;
  r_item : int array;
  logs : log array;
  mutable conflicts : conflict list; (* newest first; [violations] reverses *)
  mutable writes_seen : int;
  mutable reads_seen : int;
}

let create ~slots ~workers =
  if slots < 0 then invalid_arg "Ownership.create: slots < 0";
  if workers < 1 then invalid_arg "Ownership.create: workers < 1";
  {
    slots;
    workers;
    epoch = 1;
    w_epoch = Array.make slots 0;
    w_item = Array.make slots (-1);
    r_epoch = Array.make slots 0;
    r_item = Array.make slots (-1);
    logs = Array.init workers (fun _ -> { buf = Array.make 1024 0; len = 0 });
    conflicts = [];
    writes_seen = 0;
    reads_seen = 0;
  }

let epoch t = t.epoch
let writes_seen t = t.writes_seen
let reads_seen t = t.reads_seen

let append log kind item slot =
  let need = log.len + 3 in
  if need > Array.length log.buf then begin
    let bigger = Array.make (2 * Array.length log.buf) 0 in
    Array.blit log.buf 0 bigger 0 log.len;
    log.buf <- bigger
  end;
  log.buf.(log.len) <- kind;
  log.buf.(log.len + 1) <- item;
  log.buf.(log.len + 2) <- slot;
  log.len <- need

let write t ~worker ~item slot = append t.logs.(worker) 0 item slot
let read t ~worker ~item slot = append t.logs.(worker) 1 item slot

let record kind t ~worker ~item buf len =
  let log = t.logs.(worker) in
  for i = 0 to len - 1 do
    append log kind item buf.(i)
  done

let writes t = record 0 t
let reads t = record 1 t

(* Merge the epoch's records in item order and replay them against the
   per-slot shadow stamps. *)
let barrier t =
  let take log =
    let records =
      Array.init (log.len / 3) (fun j ->
          (log.buf.((3 * j) + 1), log.buf.(3 * j), log.buf.((3 * j) + 2)))
    in
    log.len <- 0;
    records
  in
  let records = Array.concat (List.map take (Array.to_list t.logs)) in
  Array.stable_sort (fun (i1, _, _) (i2, _, _) -> Int.compare i1 i2) records;
  let conflict rule slot first_item second_item =
    t.conflicts <- { epoch = t.epoch; slot; rule; first_item; second_item } :: t.conflicts
  in
  Array.iter
    (fun (item, kind, slot) ->
      if slot >= 0 && slot < t.slots then begin
        if kind = 0 then begin
          t.writes_seen <- t.writes_seen + 1;
          if t.w_epoch.(slot) = t.epoch && t.w_item.(slot) <> item then
            conflict "slot-conflict" slot t.w_item.(slot) item;
          t.w_epoch.(slot) <- t.epoch;
          t.w_item.(slot) <- item
        end
        else begin
          t.reads_seen <- t.reads_seen + 1;
          if t.w_epoch.(slot) = t.epoch then conflict "premature-read" slot t.w_item.(slot) item;
          if t.r_epoch.(slot) = t.epoch && t.r_item.(slot) <> item then
            conflict "consume-conflict" slot t.r_item.(slot) item;
          t.r_epoch.(slot) <- t.epoch;
          t.r_item.(slot) <- item
        end
      end
      else conflict "slot-out-of-range" slot item item)
    records;
  t.epoch <- t.epoch + 1

let violations t = List.rev t.conflicts

let pp_conflict ppf c =
  Format.fprintf ppf "%s: slot %d at epoch %d (items %d and %d)" c.rule c.slot c.epoch
    c.first_item c.second_item
