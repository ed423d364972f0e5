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
  inputs : Types.chan_id array;  (** index = input slot; -1 = unwired *)
  outputs : Types.chan_id array;
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

(** What a graph is made of, counted where it is made ({!finalize},
    {!splice_buffers}), so a report walks no node.  Read-only. *)
type census = {
  counts : int array;  (** nodes per {!Types.class_of} class *)
  classes : int list;  (** the classes with a count, each once *)
  levels : int;  (** the sum of every [Gen]'s [gen_arity] *)
  unclassed : Types.kind list;  (** the kinds without a class *)
}

val census : t -> census

val iter_nodes : (node -> unit) -> t -> unit
val iter_chans : (channel -> unit) -> t -> unit

(** Count of nodes matching a predicate; used by reports and tests. *)
val count_nodes : (node -> bool) -> t -> int

(** Kahn's topological order: zero in-degree nodes in id order, then each
    popped node's successors in output-slot order.  [None] on a cycle. *)
val topo_order : t -> Types.node_id array option

(** [splice_buffers g slots] is [g] with a transparent FIFO of [slots.(c)]
    slots, labelled ["slack"], spliced into every channel [c] with
    [slots.(c) > 0] ([slots] has one entry per channel).  The id rule,
    with [k c] the number of spliced channels below [c]:
    - node [i] of [g] keeps its id, kind and label (a fresh record with
      remapped [inputs]/[outputs]);
    - channel [c] becomes channel [c + k c];
    - a spliced channel [c] becomes [src -> buffer] (id [c + k c]) and
      [buffer -> dst] (id [c + k c + 1]), and its buffer is node
      [n_nodes g + k c].
    These are exactly the ids a {!builder} gives when it re-adds [g]'s
    nodes in id order and re-connects its channels in id order, adding
    each buffer just before its two channels.  [g] is not changed.  One
    pass over nodes and channels; the census is [g]'s plus the buffers. *)
val splice_buffers : t -> int array -> t
