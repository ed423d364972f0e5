(** The paired speed gate's rule: its constants, how one perfbench run is
    read, and the verdict over one workload's pairs.  Pure; [gate.ml]
    builds the two checkouts and runs the pairs.

    A pair runs one workload once on the base checkout and once on the
    change, with the same seed; the side that runs first alternates from
    pair to pair.  Its ratio is change [cells_per_s] / base [cells_per_s].
    A workload fails when its median ratio is below {!bound} and the change
    is slower in at least {!slower_needed} of its {!n_pairs} pairs (a
    one-sided sign test, p = 8/128 = 0.0625), or when any run of either
    side does not count.  The same rule reads each pair's heap ratio,
    change [heap_peak_mb] / base [heap_peak_mb]: a workload also fails when
    its median heap ratio is above {!heap_bound} and the change is heavier
    in at least {!slower_needed} pairs.  The latency ratios, change / base
    [cell_ms_p50] and [cell_ms_p95], are read and printed ({!latency}) but
    judged by no rule.  The model figures, [model_luts] and [model_ffs],
    are exact outputs of the same cells on both sides: a workload fails
    when they differ in any pair ({!model_differs}). *)

(** [paper_grid] and [squash_storm], the simulator and both backends, and
    [area_sweep], the compile and area-report flow with no simulation. *)
val workloads : string list

(** 7 pairs per workload. *)
val n_pairs : int

(** Seconds per run (perfbench [--seconds]); runs are untraced. *)
val seconds : float

(** 600: the wall-clock limit, in seconds, on one side run, its build
    included.  A run past it (one stuck on another build's
    [_build/.lock], say) is killed and does not count. *)
val side_limit_s : int

(** The seed of pair [i], shared by both sides. *)
val seed : int -> int

(** 0.90: the median ratio below which the change may fail. *)
val bound : float

(** 1.20: the median heap ratio above which the change may fail
    (BENCHMARK.json's 20% bound on [heap_peak_mb]). *)
val heap_bound : float

(** 6: pairs in which the change must be slower (or heavier) for it to
    fail. *)
val slower_needed : int

(** What one run reports. *)
type run = {
  cells_per_s : float;
  heap_peak_mb : float;
  cell_ms_p50 : float;
  cell_ms_p95 : float;
  model_luts : float;  (** modelled LUTs summed over one pass *)
  model_ffs : float;  (** modelled FFs summed over one pass *)
}

(** One run, or why it does not count. *)
type side = (run, string) result

(** [side ~status ~stdout] reads one perfbench run from its exit status
    and standard output, whose last line is the result JSON.  Status 124
    ([timeout]'s, past {!side_limit_s}) is [Error "timed out"]; any other
    non-zero status, a missing or unparsable result line, a missing
    metric (any of the six in {!run}), or ["correct": false] make it an
    [Error] too. *)
val side : status:int -> stdout:string -> side

type pair = { seed : int; base : side; change : side }

(** change / base [cells_per_s] when both sides count. *)
val ratio : pair -> float option

(** change / base [heap_peak_mb] when both sides count. *)
val heap_ratio : pair -> float option

(** change / base [cell_ms_p50] and [cell_ms_p95] when both sides count;
    above 1 is slower. *)
val p50_ratio : pair -> float option

val p95_ratio : pair -> float option

(** The median p50 and p95 latency ratios over the pairs where both sides
    count, as one line; ["-"] where no pair counts.  A report only: no
    rule reads it. *)
val latency : pair list -> string

(** Both sides count and their [model_luts] or [model_ffs] differ. *)
val model_differs : pair -> bool

(** [Ok summary] when the workload passes, [Error why] when it fails.  The
    summary carries the median ratio, the number of slower pairs, the
    median heap ratio and the number of heavier pairs. *)
val verdict : pair list -> (string, string) result
