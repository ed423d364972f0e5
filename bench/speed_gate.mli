(** The paired speed gate's rule: its constants, how one perfbench run is
    read, and the verdict over one workload's pairs.  Pure; [gate.ml]
    builds the two checkouts and runs the pairs.

    A pair runs one workload once on the base checkout and once on the
    change, with the same seed; the side that runs first alternates from
    pair to pair.  Its ratio is change [cells_per_s] / base [cells_per_s].
    A workload fails when its median ratio is below {!bound} and the change
    is slower in at least {!slower_needed} of its {!n_pairs} pairs (a
    one-sided sign test, p = 8/128 = 0.0625), or when any run of either
    side does not count. *)

(** [paper_grid] and [squash_storm]: the simulator and both backends. *)
val workloads : string list

(** 7 pairs per workload. *)
val n_pairs : int

(** Seconds per run (perfbench [--seconds]); runs are untraced. *)
val seconds : float

(** The seed of pair [i], shared by both sides. *)
val seed : int -> int

(** 0.90: the median ratio below which the change may fail. *)
val bound : float

(** 6: pairs in which the change must be slower for it to fail. *)
val slower_needed : int

(** One run: its [cells_per_s], or why it does not count. *)
type side = (float, string) result

(** [side ~status ~stdout] reads one perfbench run from its exit status
    and standard output, whose last line is the result JSON.  A non-zero
    status, a missing or unparsable result line, or ["correct": false]
    make it an [Error]. *)
val side : status:int -> stdout:string -> side

type pair = { seed : int; base : side; change : side }

(** change / base when both sides count. *)
val ratio : pair -> float option

(** [Ok summary] when the workload passes, [Error why] when it fails.  The
    summary carries the median ratio and the number of slower pairs. *)
val verdict : pair list -> (string, string) result
