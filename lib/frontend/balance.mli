(** Throughput balancing: slack-buffer insertion on reconvergent paths.

    An elastic circuit only sustains II = 1 if, at every join, the shorter
    of two reconvergent paths has enough token capacity to absorb the skew
    of the longer one; otherwise the upstream fork stalls.  Dynamatic runs
    a buffer-placement optimisation for exactly this reason; this is the
    standard longest-path variant: compute each node's depth from the
    generator and give every lagging input of a multi-input node a FIFO
    sized to the skew. *)

(** Buffer sizes per channel needed for II = 1; [0] = no buffer.  The
    latency model is the simulator's: {!Pv_dataflow.Sim.default_latency}
    for a functional unit and {!Pv_dataflow.Memif.mem_latency} for a
    load. *)
val plan : Pv_dataflow.Graph.t -> int array

(** The graph with a slack FIFO spliced into every channel the plan sizes
    above zero, in one pass ({!Pv_dataflow.Graph.splice_buffers}).  Ids:
    original nodes keep theirs; channel [c] becomes [c + k], with [k] the
    number of spliced channels below [c]; a spliced channel's buffer is
    node [n_nodes + k] and its two halves are channels [c + k] (into the
    buffer) and [c + k + 1] (out of it).  The input graph is unchanged. *)
val insert_buffers : Pv_dataflow.Graph.t -> int array -> Pv_dataflow.Graph.t

(** [plan] + [insert_buffers]; returns the graph unchanged when no slack is
    needed. *)
val apply : Pv_dataflow.Graph.t -> Pv_dataflow.Graph.t
