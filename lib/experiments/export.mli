(** CSV export of the evaluation matrix.

    One row per (dataset, partitioner, configuration, algorithm) cell
    with the five paper metrics and the simulated time decomposition,
    for analysis outside the harness (spreadsheets, R, gnuplot). *)

val save : string -> Run.measurement list -> unit
(** Write the CSV to a file: a header line, then one row per
    measurement; OOMed cells carry an empty time and [completed=false]. *)

val json_of_measurements : Run.measurement list -> Cutfit_obs.Json.t
(** The same matrix as a JSON array of objects (one per cell, same
    fields as the CSV), for the machine-readable BENCH_* artifacts that
    track the perf trajectory across revisions. *)

val write_json : string -> Cutfit_obs.Json.t -> unit
(** Pretty-stable single-line JSON to a file (the {!Cutfit_obs.Json}
    printer: 17-significant-digit floats, so re-parsing is bit-exact),
    with a trailing newline. *)
