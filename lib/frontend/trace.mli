(** Loop-nest trace: the schedule the generator component walks.

    A dataflow circuit's chain of control merges and branches computes the
    program-order succession of basic-block instances at run time; since
    the kernels' loop bounds are compile-time expressions over parameters
    and outer induction variables, that succession is a pure function of
    the instance number and can be tabulated.  The table parameterises the
    rewindable {!Pv_dataflow.Types.Gen} node — the single point a PreVV
    squash rewinds — and the oracle's program-order walk, both of which
    read it in place.  Compiling counts the rows; a table is filled only
    for a run that reads it. *)

exception Data_dependent_bound of Pv_kernels.Ast.expr

(** The schedule as the generator reads it: [gen_arity] is 1 (the leaf
    id) + the maximum loop depth, and row [seq] of a fill holds the leaf id
    followed by its induction variables (outermost first), zero-padded. *)
type t = Pv_dataflow.Types.gen_spec

(** Count the trace's rows and allocate no table.  Each leaf's loop
    variables and each bound resolve once per node, before the walk,
    which runs here once to count the rows and again on each fill, on its
    own frame and into its own table.
    @raise Data_dependent_bound when a loop bound the walk reaches reads an
    array (one inside a zero-trip loop is never reached). *)
val of_kernel : Pv_kernels.Ast.kernel -> Depend.info -> t

(** Body instances: [gen_rows]. *)
val length : t -> int
