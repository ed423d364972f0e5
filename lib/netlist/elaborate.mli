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
    (["dp/label_nid"]). *)
val datapath : ?ws:Gen.widths -> Pv_dataflow.Graph.t -> Primitive.t

(** Full netlist; memory-subsystem macros are scoped under ["mem/"], and
    every block carries its Fig. 1 region. *)
val circuit :
  ?ws:Gen.widths ->
  Pv_dataflow.Graph.t ->
  Pv_memory.Portmap.t ->
  disambiguation ->
  Primitive.t

(** Split totals into (datapath + controller, disambiguation logic) by
    block region. *)
val breakdown : Primitive.t -> Primitive.totals * Primitive.totals
