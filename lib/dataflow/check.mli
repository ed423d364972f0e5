(** Structural validation of a finalized graph.

    Three properties are enforced before simulation:
    - every declared input/output slot of every node is wired;
    - every buffer has at least one slot (one with none never takes a
      token, so the simulation would hang);
    - every directed cycle of the graph passes through an opaque buffer
      (otherwise the combinational handshake of a cycle would not
      converge — a combinational loop).

    A graph that passes may still be cyclic.  {!Sim} simulates acyclic
    graphs only and rejects the others with {!Sim.Cyclic_graph}; every
    circuit {!Pv_frontend.Build} elaborates is acyclic. *)

type error =
  | Unwired of { node : Types.node_id; label : string; dir : string; slot : int }
  | Empty_buffer of { node : Types.node_id; label : string; slots : int }
      (** a buffer declared with [slots < 1] *)
  | Combinational_cycle of Types.node_id list
      (** one representative path around the offending cycle *)

val pp_error : Format.formatter -> error -> unit

exception Invalid of error

(** All structural errors of the graph, in stable order. *)
val errors : Graph.t -> error list

(** @raise Invalid with the first error, if any. *)
val validate_exn : Graph.t -> unit
