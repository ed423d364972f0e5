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

(** Mutable construction state. *)
type builder

val create : unit -> builder

(** [add ?label b kind] appends a node and returns its id.  Ids are dense
    and assigned in creation order. *)
val add : ?label:string -> builder -> Types.kind -> Types.node_id

(** [connect b (src, out_slot) (dst, in_slot)] wires a new channel.
    @raise Invalid_argument on out-of-range slots or double wiring. *)
val connect :
  ?width:int -> builder -> Types.node_id * int -> Types.node_id * int -> unit

val finalize : builder -> t
val n_nodes : t -> int
val n_chans : t -> int
val node : t -> Types.node_id -> node
val chan : t -> Types.chan_id -> channel
val iter_nodes : (node -> unit) -> t -> unit
val iter_chans : (channel -> unit) -> t -> unit

(** Count of nodes matching a predicate; used by reports and tests. *)
val count_nodes : (node -> bool) -> t -> int
