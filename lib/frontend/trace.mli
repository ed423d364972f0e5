(** Loop-nest trace: the schedule the generator component walks.

    A dataflow circuit's chain of control merges and branches computes the
    program-order succession of basic-block instances at run time; since
    the kernels' loop bounds are compile-time expressions over parameters
    and outer induction variables, that succession is a pure function of
    the instance number and can be tabulated.  The table parameterises the
    rewindable {!Pv_dataflow.Types.Gen} node — the single point a PreVV
    squash rewinds — and the oracle's program-order walk, both of which
    read it in place. *)

exception Data_dependent_bound of Pv_kernels.Ast.expr

type t = {
  table : int array;
      (** the schedule, one row of [arity] ints per body instance: row [seq]
          starts at [seq * arity] and holds the leaf id followed by its
          induction variables (outermost first), zero-padded to
          [arity - 1] *)
  arity : int;  (** generator output count: 1 (leaf id) + max loop depth *)
}

(** Tabulate the trace into a table of exactly [length * arity] ints.  Each
    leaf's loop variables and each bound resolve once per node, before the
    walk, which runs twice: once to count the rows, once to fill them.
    @raise Data_dependent_bound when a loop bound the walk reaches reads an
    array (one inside a zero-trip loop is never reached). *)
val of_kernel : Pv_kernels.Ast.kernel -> Depend.info -> t

(** Body instances: [Array.length table / arity]. *)
val length : t -> int

(** The generator specification driving the circuit; it shares [table]. *)
val gen_spec : t -> Pv_dataflow.Types.gen_spec
