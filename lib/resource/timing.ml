(** Post-synthesis clock-period model (ns), calibrated to the paper's
    Vivado runs on xc7k160t with a 4 ns constraint (all published circuits
    miss that constraint and settle at 7.2–9.2 ns; so do ours).

    The achieved period is the worst of the datapath's critical path and
    the memory-disambiguation logic:
    - datapath: base logic + routing, growing slowly with circuit size
      (congestion) and with the slowest functional unit on the path;
    - plain LSQ [15]: allocation sits in the critical path, and the
      associative search grows with depth;
    - fast LSQ [8]: allocation is decoupled; a shallower search remains;
    - PreVV: the arbiter's parallel compare is almost depth-independent
      (one comparator bank and a priority reduce), the paper's "does not
      need complex LSQ searching logic". *)

let log2f x = log x /. log 2.0

(** Critical path of the computation part, from the circuit's node count
    and the slow functional units present. *)
let datapath_cp ~nodes ~div ~mul =
  let nodes = float_of_int (max 2 nodes) in
  let op_term = (if div then 0.75 else 0.0) +. if mul then 0.35 else 0.0 in
  5.6 +. (0.18 *. log2f nodes) +. op_term

type mem_kind = M_plain_lsq | M_fast_lsq | M_prevv | M_oracle | M_serial

(** Critical path of the disambiguation subsystem at a given queue depth. *)
let mem_cp kind ~depth =
  let d = float_of_int depth in
  match kind with
  | M_plain_lsq -> 6.70 +. (0.031 *. d)  (* allocation + search in the path *)
  | M_fast_lsq -> 6.85 +. (0.016 *. d)  (* search only *)
  | M_prevv -> 6.85 +. (0.007 *. d)  (* parallel validate + priority *)
  | M_oracle -> 0.0  (* analytic: never limits the clock *)
  | M_serial -> 6.0  (* head counter + comparator, depth-independent *)

(** Execution time in microseconds. *)
let exec_time_us ~cycles ~cp_ns = float_of_int cycles *. cp_ns /. 1000.0
