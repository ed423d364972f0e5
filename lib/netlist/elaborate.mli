(** Elaboration of a full circuit (datapath + memory subsystem) into a
    primitive netlist. *)

(** Which disambiguation hardware to instantiate; depths are in the
    paper's units (the area model is calibrated in those units). *)
type disambiguation =
  | D_plain_lsq of int  (** pooled LSQ, classic allocation [15] *)
  | D_fast_lsq of int  (** pooled LSQ with fast token delivery [8] *)
  | D_prevv of int  (** PreVV instance per ambiguous array *)
  | D_oracle  (** analytic lower bound: no disambiguation hardware *)
  | D_serial  (** program-order serializer: a small gate per instance *)

(** Datapath-only netlist: one block per component, scoped at its node
    (["dp/label_nid"]), in node order; the prefix of {!fold}'s stream. *)
val datapath : ?ws:Gen.widths -> Pv_dataflow.Graph.t -> Primitive.t

(** [fold f acc g pm dis] is the one source of blocks: it walks [g] once
    and passes [f] every block of the circuit in netlist order, the
    datapath in node order (a fused loop generator's levels ahead of its
    FSM) and then the memory-subsystem macros, scoped under ["mem/"].
    Every block carries its Fig. 1 region.  PreVV's replay copy is sized
    from the datapath LUT sum the fold tallies as the blocks pass.
    {!circuit} collects this stream for emission and grouping;
    {!Pv_resource.Report} totals {!summarize} and {!subsystem} instead. *)
val fold :
  ?ws:Gen.widths ->
  ('a -> Primitive.block -> 'a) ->
  'a ->
  Pv_dataflow.Graph.t ->
  Pv_memory.Portmap.t ->
  disambiguation ->
  'a

(** What a report needs of the datapath, from {!summarize}. *)
type summary = {
  dp : Primitive.totals;  (** the totals of {!datapath}'s blocks *)
  nodes : int;  (** graph nodes *)
  div : bool;  (** a divider or remainder unit is present *)
  mul : bool;  (** a DSP multiplier is present *)
}

(** [summarize g] walks [g] once at {!Gen.default_widths} and allocates
    nothing per node: each component's totals come from a table derived
    from {!Gen.component}'s parts and built once at start-up; a generator
    adds {!Gen.loop_level}'s totals per level.  A fork, join, merge or mux
    of more than 64 inputs or outputs, or a buffer of more than 64 slots,
    is tallied from its parts.  [(summarize g).dp] is the datapath share
    {!fold} streams ahead of the macros. *)
val summarize : Pv_dataflow.Graph.t -> summary

(** The memory-subsystem macros {!fold} streams after the datapath, in
    netlist order; [dp_luts] sizes PreVV's replay copy. *)
val subsystem :
  ?ws:Gen.widths ->
  Pv_dataflow.Graph.t ->
  Pv_memory.Portmap.t ->
  disambiguation ->
  dp_luts:int ->
  Primitive.t

(** Full netlist: {!fold}'s stream as a list. *)
val circuit :
  ?ws:Gen.widths ->
  Pv_dataflow.Graph.t ->
  Pv_memory.Portmap.t ->
  disambiguation ->
  Primitive.t

(** Split totals into (datapath + controller, disambiguation logic) by
    block region. *)
val breakdown : Primitive.t -> Primitive.totals * Primitive.totals
