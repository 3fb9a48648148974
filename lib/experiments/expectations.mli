(** The paper's quantitative claims, as checkable expectations.

    Each check compares a measured shape (correlation coefficient,
    granularity effect, OOM behaviour, infrastructure speedup) with the
    paper's reported value under a tolerance, and renders a PASS /
    DEVIATION line. Absolute times are never compared — the substrate is
    a simulator and the datasets are scaled analogues. *)

type verdict = { name : string; expected : string; measured : string; pass : bool }

val check_all : Run.measurement list -> verdict list
(** Figures 3–6 headline coefficients (PR/CommCost 95/96%, CC/CommCost
    92/94%, TR/Cut 95/97% with TR/CommCost low at 43/34%,
    SSSP/CommCost 80/86%); the granularity effects (PR slows down at
    finer grain, CC speeds up on the big datasets by up to ~22%, TR
    speeds up consistently by up to ~40% on Orkut); and SSSP's OOM on
    the road networks while the social datasets complete. *)

val summary : Format.formatter -> verdict list -> unit
(** Render all verdicts, one [\[PASS\]] or [\[DEVIATION\]] line each,
    plus a pass count. *)
