(** Structural elaboration: dataflow components and memory-subsystem macros
    to FPGA primitives.

    Datapath components follow standard elastic-component implementations
    (combinational function + handshake; storage only in buffers, FU
    pipelines and port registers).  The LSQ macro follows the published
    Dynamatic LSQ structure (per-entry storage, an order matrix, per-port
    CAM search and forwarding muxes, group allocator with ROM); the PreVV
    macro instantiates the paper's components (collapsing premature queue
    in distributed RAM, LMerge/SMerge, parallel validation comparators,
    squash/replay control) plus a replicated copy of each member pair's
    datapath for re-execution — Eq. 6 charges every pair its computation
    twice, and the re-execution path is physical.

    Calibration constants, private to the implementation, absorb what
    synthesis would add in replication and control duplication; they were
    fitted once against the published Table I and then frozen (DESIGN.md
    §9).  The fabric is fixed at 32-bit data, 12-bit array addresses and
    12-bit iteration sequence numbers. *)

(** {1 Elastic datapath components}

    Each returns its parts under static leaf names; {!Elaborate} scopes
    them. *)

(** The parts of one component; a fused loop generator's own parts are its
    FSM, and each of its levels adds {!loop_level}. *)
val component : Pv_dataflow.Types.kind -> Primitive.part list

(** One level of a fused loop controller: counter + bound comparator. *)
val loop_level : Primitive.part list

(** {1 Memory-subsystem macros} *)

(** Memory controller for direct (provably independent) ports. *)
val mem_controller : nports:int -> Primitive.part list

(** The pooled Dynamatic LSQ; [fast_alloc] adds the fast-token-delivery
    network of [8]. *)
val lsq :
  depth:int ->
  nload_ports:int ->
  nstore_ports:int ->
  ngroups:int ->
  fast_alloc:bool ->
  Primitive.part list

(** One PreVV disambiguation instance; [member_datapath_luts] is the LUT
    size of the member pair's computation, replicated for re-execution. *)
val prevv :
  depth:int ->
  nload_ports:int ->
  nstore_ports:int ->
  ngroups:int ->
  member_datapath_luts:int ->
  Primitive.part list

(** PreVV's squash broadcast over a circuit of [components] nodes. *)
val squash_net : components:int -> Primitive.part list

(** The program-order serialiser's gate for one ambiguous array. *)
val serializer : nports:int -> ngroups:int -> Primitive.part list
