(** Post-synthesis clock-period model (ns), calibrated to the paper's
    Vivado runs on xc7k160t with a 4 ns constraint (all published circuits
    miss that constraint and settle at 7.2–9.2 ns; so do ours).

    The achieved period is the worse of the datapath's critical path and
    the memory-disambiguation logic's:
    - datapath: base logic + routing, growing slowly with circuit size and
      with the slowest functional unit present;
    - plain LSQ [15]: allocation sits in the critical path and the
      associative search grows with depth;
    - fast LSQ [8]: allocation decoupled, a shallower search remains;
    - PreVV: the arbiter's parallel compare is almost depth-independent —
      the paper's "does not need complex LSQ searching logic". *)

(** Critical path of the computation part, from the circuit's node count
    and whether a divider/remainder ([div]) or a DSP multiplier ([mul]) is
    present ({!Pv_netlist.Elaborate.summarize} finds both). *)
val datapath_cp : nodes:int -> div:bool -> mul:bool -> float

(** Critical path of the disambiguation subsystem at its queue depth. *)
val mem_cp : Pv_netlist.Elaborate.disambiguation -> float

(** Execution time in microseconds, [cycles * cp / 1000]. *)
val exec_time_us : cycles:int -> cp_ns:float -> float
