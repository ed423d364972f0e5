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

(** Critical path of the disambiguation subsystem at its queue depth. *)
let mem_cp (dis : Pv_netlist.Elaborate.disambiguation) =
  let open Pv_netlist.Elaborate in
  match dis with
  | D_plain_lsq d -> 6.70 +. (0.031 *. float_of_int d)  (* alloc + search *)
  | D_fast_lsq d -> 6.85 +. (0.016 *. float_of_int d)  (* search only *)
  | D_prevv d -> 6.85 +. (0.007 *. float_of_int d)  (* validate + priority *)
  | D_oracle -> 0.0  (* analytic: never limits the clock *)
  | D_serial -> 6.0  (* head counter + comparator, depth-independent *)

(** Execution time in microseconds. *)
let exec_time_us ~cycles ~cp_ns = float_of_int cycles *. cp_ns /. 1000.0
