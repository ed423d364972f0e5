(** Registry-driven differential harness: run one kernel under every
    registered scheme, check that they agree on the final memory and the
    outcome, and that the cycle counts respect the bound chain

    {v oracle <= prevv* <= dynamatic <= serial v}

    The fast LSQ participates in the agreement check but is deliberately
    {e unranked}: the paper's own Table II shows PreVV16 costing more
    cycles than the fast LSQ on some kernels (+10.79% on average), so it
    belongs to no total order with PreVV.  The plain Dynamatic LSQ is the
    "lsq" of the chain. *)

type row = {
  scheme : string;
  rank : int option;  (** position in the bound chain; [None] = unranked *)
  cycles : int;
  finished : bool;
  verified : bool;  (** final memory matches the reference interpreter *)
  degraded : bool;  (** the backend engaged a degraded fallback *)
}

type report = {
  kernel : string;
  rows : row list;  (** one per scheme, registry order *)
  agree : bool;
      (** every scheme finished, verified, and produced the same final
          flat memory *)
  ordering_ok : bool;  (** the bound chain holds *)
  violations : string list;  (** human-readable chain violations *)
}

(** Run every scheme in [schemes] (default [Scheme.all ()]) on [kernel]. *)
val run :
  ?sim_cfg:Pv_dataflow.Sim.config ->
  ?init:(string * int array) list ->
  ?schemes:Scheme.t list ->
  Pv_kernels.Ast.kernel ->
  report

(** [agree && ordering_ok]. *)
val ok : report -> bool

val pp : Format.formatter -> report -> unit
