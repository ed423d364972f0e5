(** Fully serializing reference backend — the cycle {e upper bound}.

    Models a single non-pipelined memory channel with strict program-order
    issue: at most one memory operation is in flight at any time, each
    occupying the channel for {!Pv_dataflow.Memif.mem_latency} cycles plus
    one dead turnaround cycle, and ambiguous operations are additionally
    admitted only in exact program order [(seq, port)] — the most
    conservative legal disambiguation (every pair of ambiguous ops is
    treated as a true dependency).  Direct (unambiguous) ports share the
    same single channel but are served in arrival order.

    It never speculates, never squashes and holds no speculative state
    ([inject] refuses every backend fault).  Its state is flat — per-seq
    group and per-[(seq, port)] completion tables sized by the trace
    length, per-port response rings — so a steady-state cycle allocates
    nothing. *)

type t

(** [create_full ?trace pm ~n_seq mem] serves body instances
    [0 .. n_seq - 1] (the trace length) over the flat memory [mem]. *)
val create_full :
  ?trace:Pv_obs.Trace.t ->
  Pv_memory.Portmap.t ->
  n_seq:int ->
  int array ->
  t * Pv_dataflow.Memif.t

(** {1 Scheme-specific counters} *)

(** Ambiguous operations admitted through the program-order gate. *)
val serialized : t -> int

(** Current head of the program-order gate, as [(seq, index)] into the
    group's port list — useful in post-mortems. *)
val head : t -> int * int
