(** Construction of elastic dataflow graphs.

    A graph is a set of nodes connected by single-slot channels; elasticity
    (pipelining capacity) comes from explicit {!Types.Buffer} nodes,
    exactly as in real dataflow circuits where channels are wire pairs and
    storage is a component. *)

(** One end of a channel: a node and a slot index on that node. *)
type endpoint = { node : Types.node_id; slot : int }

type channel = {
  cid : Types.chan_id;
  src : endpoint;
  dst : endpoint;
  width : int;  (** data width in bits, used by the resource model *)
}

type node = {
  nid : Types.node_id;
  kind : Types.kind;
  label : string;  (** human-readable name for reports and DOT/VCD output *)
  mutable inputs : Types.chan_id array;  (** index = input slot; -1 = unwired *)
  mutable outputs : Types.chan_id array;
}

(** A finalized, immutable graph. *)
type t

(** Mutable construction state.  Nodes sit in a growable array indexed by
    id, so every builder operation is O(1) (amortised for {!add}) and a
    whole construction is linear in nodes + channels. *)
type builder

val create : unit -> builder

(** [add ?label b kind] appends a node and returns its id.  Ids are dense
    and assigned in creation order. *)
val add : ?label:string -> builder -> Types.kind -> Types.node_id

(** [connect b (src, out_slot) (dst, in_slot)] wires a new channel; channel
    ids are dense and assigned in connection order.  Both nodes are found
    by id in O(1).
    @raise Invalid_argument ["connect: no node N"] when either id was never
    added, ["connect: node N (label) has no output slot S"] (or [input])
    when a slot is negative or past the node's arity, and
    ["connect: output S of node N (label) already wired"] (or [input]) on
    double wiring. *)
val connect :
  ?width:int -> builder -> Types.node_id * int -> Types.node_id * int -> unit

(** The graph built so far: copies of the node and channel tables, in id
    order.  Linear in nodes + channels. *)
val finalize : builder -> t
val n_nodes : t -> int
val n_chans : t -> int
val node : t -> Types.node_id -> node
val chan : t -> Types.chan_id -> channel
val iter_nodes : (node -> unit) -> t -> unit
val iter_chans : (channel -> unit) -> t -> unit

(** Count of nodes matching a predicate; used by reports and tests. *)
val count_nodes : (node -> bool) -> t -> int
