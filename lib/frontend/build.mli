(** Elaboration of a kernel into an elastic dataflow circuit.

    The circuit follows the Dynamatic construction adapted to PreVV-style
    replay: a rewindable loop-nest generator dispatches body-instance
    tokens to one gated datapath per leaf statement; each datapath is a
    DAG of functional units, forks and memory ports, with a 4-slot FIFO in
    front of every ambiguous port (the decoupling FIFO of Fig. 3).
    Conditional leaves route their tokens through branches and notify the
    backend of untaken paths through {!Pv_dataflow.Types.Skip} nodes — the
    fake tokens of Sec. V-C.  Multiplications by compile-time constants
    are strength-reduced to {!Pv_dataflow.Types.Mulc}. *)

type options = {
  fake_tokens : bool;
      (** wire Skip nodes for conditional pair members; [false] reproduces
          the Fig. 6 deadlock *)
  balance : bool;  (** slack-buffer insertion for II = 1 (see {!Balance}) *)
  cse : bool;
      (** deduplicate syntactically repeated loads per leaf, forking the
          loaded value instead.  Read by the analysis
          ([Pv_core.Pipeline.compile] passes it to {!Depend.analyse}), not by
          {!circuit}, which follows the analysis' lowered leaves *)
}

val default_options : options

(** Build the circuit from [info]'s lowered leaves, whose ports and load
    reuses it takes as they are. *)
val circuit :
  ?options:options ->
  Pv_kernels.Ast.kernel ->
  Depend.info ->
  Pv_memory.Layout.t ->
  Trace.t ->
  Pv_dataflow.Graph.t
