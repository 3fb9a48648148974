type counter = { mutable count : int }
type gauge = { mutable last : float }
type timer = { mutable sum : float }

type cell = Counter of counter | Gauge of gauge | Timer of timer

type registry = (string, cell) Hashtbl.t

let create_registry () : registry = Hashtbl.create 16

let counter reg name =
  match Hashtbl.find_opt reg name with
  | Some (Counter c) -> c
  | Some _ -> invalid_arg (Printf.sprintf "Metric.counter: %S is registered as another kind" name)
  | None ->
      let c = { count = 0 } in
      Hashtbl.replace reg name (Counter c);
      c

let gauge reg name =
  match Hashtbl.find_opt reg name with
  | Some (Gauge g) -> g
  | Some _ -> invalid_arg (Printf.sprintf "Metric.gauge: %S is registered as another kind" name)
  | None ->
      let g = { last = 0.0 } in
      Hashtbl.replace reg name (Gauge g);
      g

let timer reg name =
  match Hashtbl.find_opt reg name with
  | Some (Timer t) -> t
  | Some _ -> invalid_arg (Printf.sprintf "Metric.timer: %S is registered as another kind" name)
  | None ->
      let t = { sum = 0.0 } in
      Hashtbl.replace reg name (Timer t);
      t

let incr c = c.count <- c.count + 1
let add c k = c.count <- c.count + k

let set g v = g.last <- v

let record t s = t.sum <- t.sum +. s

let time ?(clock = Clock.wall) t f =
  let start = clock () in
  Fun.protect ~finally:(fun () -> record t (clock () -. start)) f

let snapshot reg =
  (* lint: order-independent — the accumulated list is sorted below. *)
  Hashtbl.fold
    (fun name cell acc ->
      let v =
        match cell with
        | Counter c -> float_of_int c.count
        | Gauge g -> g.last
        | Timer t -> t.sum
      in
      (name, v) :: acc)
    reg []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
