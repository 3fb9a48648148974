(** Log-binned histograms.

    Degree distributions of social graphs span four-plus orders of
    magnitude; Figure 1 of the paper shows them on log-log axes. A
    base-2 log-binned histogram reproduces that shape compactly. *)

type bin = { lo : int; hi : int; count : int }
(** Half-open value range [\[lo, hi)] and the number of samples in it. *)

val log2_bins : int array -> bin list
(** Log-binned histogram of non-negative integers. Zero values get their
    own [\[0,1)] bin; bin boundaries are powers of two. Empty bins are
    omitted. *)
