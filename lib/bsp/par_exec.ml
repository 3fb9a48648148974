(* Epoch-based pool: workers sleep on a condition variable until the
   epoch counter advances, run the published task, and count down a
   pending counter that the caller waits on. Mutex acquire/release
   around each phase provides the happens-before edges between a
   phase's writes and the next phase's reads; the kernels' determinism
   then rests purely on item-owned writes (see the interface). *)

type t = {
  domains : int;
  mutex : Mutex.t;
  start : Condition.t;
  finished : Condition.t;
  mutable epoch : int;
  mutable task : int -> unit;
  mutable pending : int;
  mutable failure : exn option;
  mutable stop : bool;
  mutable workers : unit Domain.t array;
}

let worker_loop t w =
  let seen = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock t.mutex;
    while t.epoch = !seen && not t.stop do
      Condition.wait t.start t.mutex
    done;
    if t.stop then begin
      Mutex.unlock t.mutex;
      running := false
    end
    else begin
      seen := t.epoch;
      let task = t.task in
      Mutex.unlock t.mutex;
      let fail = match task w with () -> None | exception e -> Some e in
      Mutex.lock t.mutex;
      (match (t.failure, fail) with
      | None, Some e -> t.failure <- Some e
      | _ -> ());
      t.pending <- t.pending - 1;
      if t.pending = 0 then Condition.signal t.finished;
      Mutex.unlock t.mutex
    end
  done

let create ~domains =
  if domains < 1 then invalid_arg "Par_exec.create: domains < 1";
  let t =
    {
      domains;
      mutex = Mutex.create ();
      start = Condition.create ();
      finished = Condition.create ();
      epoch = 0;
      task = ignore;
      pending = 0;
      failure = None;
      stop = false;
      workers = [||];
    }
  in
  t.workers <- Array.init (domains - 1) (fun i -> Domain.spawn (fun () -> worker_loop t (i + 1)));
  t

(* [f w] on every worker [w] in [0, domains), [w = 0] inline on the
   caller; waits for all of them and re-raises a worker's exception
   after the barrier. *)
let run t f =
  if t.domains = 1 then f 0
  else begin
    Mutex.lock t.mutex;
    t.task <- f;
    t.failure <- None;
    t.pending <- t.domains - 1;
    t.epoch <- t.epoch + 1;
    Condition.broadcast t.start;
    Mutex.unlock t.mutex;
    let mine = match f 0 with () -> None | exception e -> Some e in
    Mutex.lock t.mutex;
    while t.pending > 0 do
      Condition.wait t.finished t.mutex
    done;
    let theirs = t.failure in
    t.task <- ignore;
    Mutex.unlock t.mutex;
    match (mine, theirs) with
    | Some e, _ | None, Some e -> raise e
    | None, None -> ()
  end

(* With a shadow, the Ownership barrier runs on the driver domain after
   the phase has joined, so it reads the worker logs race-free. *)
let iter ?shadow t ~n f =
  if t.domains = 1 then
    for i = 0 to n - 1 do
      f 0 i
    done
  else begin
    let cursor = Atomic.make 0 in
    run t (fun w ->
        let continue_ = ref true in
        while !continue_ do
          let i = Atomic.fetch_and_add cursor 1 in
          if i >= n then continue_ := false else f w i
        done)
  end;
  Option.iter Ownership.barrier shadow

let shutdown t =
  if t.domains > 1 && not t.stop then begin
    Mutex.lock t.mutex;
    t.stop <- true;
    Condition.broadcast t.start;
    Mutex.unlock t.mutex;
    Array.iter Domain.join t.workers;
    t.workers <- [||]
  end

let with_pool ~domains f =
  let t = create ~domains in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
