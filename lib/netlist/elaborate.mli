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

(** [circuit g pm dis] is the full netlist in one walk of [g]: one block
    per component, scoped at its node (["dp/label_nid"]), in node order (a
    fused loop generator's levels ahead of its FSM), then
    {!subsystem}'s macros, scoped under ["mem/"], PreVV's replay copy sized
    from the datapath blocks' LUTs.  Every block carries its Fig. 1
    region.  [prevv emit] and [prevv area] read it;
    {!Pv_resource.Report} totals {!summarize} and {!subsystem} instead. *)
val circuit :
  Pv_dataflow.Graph.t ->
  Pv_memory.Portmap.t ->
  disambiguation ->
  Primitive.t

(** What a report needs of the datapath, from {!summarize}. *)
type summary = {
  dp : Primitive.totals;  (** the totals of {!circuit}'s datapath blocks *)
  nodes : int;  (** graph nodes *)
  div : bool;  (** a divider or remainder unit is present *)
  mul : bool;  (** a DSP multiplier is present *)
}

(** [summarize g] folds [g]'s {!Pv_dataflow.Graph.census} and walks no
    node: each component class's totals come from a table derived from
    {!Gen.component}'s parts and built once at start-up, scaled by the
    class's count; the generator levels add {!Gen.loop_level}'s totals
    each.  A node without a class (past {!Pv_dataflow.Types.sized_bound})
    is tallied from its parts.  [(summarize g).dp] totals the datapath
    blocks {!circuit} puts ahead of the macros. *)
val summarize : Pv_dataflow.Graph.t -> summary

(** The memory-subsystem macros {!circuit} puts after the datapath, in
    netlist order; [dp_luts] sizes PreVV's replay copy. *)
val subsystem :
  Pv_dataflow.Graph.t ->
  Pv_memory.Portmap.t ->
  disambiguation ->
  dp_luts:int ->
  Primitive.t

(** Split totals into (datapath + controller, disambiguation logic) by
    block region. *)
val breakdown : Primitive.t -> Primitive.totals * Primitive.totals
