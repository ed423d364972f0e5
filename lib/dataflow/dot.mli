(** Graphviz export of a dataflow graph, for debugging and documentation. *)

val to_string : Graph.t -> string
val to_file : string -> Graph.t -> unit
