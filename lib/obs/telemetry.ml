type t = {
  sinks : Sink.t list;
  registry : Metric.registry;
  mutable emitted : int;
  mutable closed : bool;
}

let create ?(sinks = []) () =
  { sinks; registry = Metric.create_registry (); emitted = 0; closed = false }

let metrics t = t.registry

let emit t event =
  if not t.closed then begin
    t.emitted <- t.emitted + 1;
    List.iter (fun (s : Sink.t) -> s.Sink.emit event) t.sinks
  end

let events_emitted t = t.emitted

let close t =
  if not t.closed then begin
    t.closed <- true;
    List.iter (fun (s : Sink.t) -> s.Sink.close ()) t.sinks
  end
