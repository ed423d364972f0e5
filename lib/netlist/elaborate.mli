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
    {!circuit} collects this stream; {!Pv_resource.Report} totals it
    without building the list. *)
val fold :
  ?ws:Gen.widths ->
  ('a -> Primitive.block -> 'a) ->
  'a ->
  Pv_dataflow.Graph.t ->
  Pv_memory.Portmap.t ->
  disambiguation ->
  'a

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
