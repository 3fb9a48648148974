(** The paper's infrastructure experiment (section 4, last paragraph).

    PageRank on the biggest dataset (follow-dec) at 256 partitions,
    re-run with a 40 Gbps network (configuration (iii)) and again with
    local SSD storage (configuration (iv)). The paper measures ~15% and
    ~20% average improvements over configuration (ii) — evidence that a
    good partitioner matters more on better infrastructure. *)

type result = {
  partitioner : string;
  time_ii : float;
  time_iii : float;
  time_iv : float;
  gain_iii_pct : float;  (** improvement of (iii) over (ii) *)
  gain_iv_pct : float;
}

val run : ?dataset:string -> unit -> result list
(** One row per paper partitioner. Default dataset: "follow_dec". *)

val report : Format.formatter -> result list -> unit
