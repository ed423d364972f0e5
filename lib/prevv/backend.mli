(** The PreVV memory backend: one premature queue + arbiter per ambiguous
    array (one disambiguation instance), no load or store queue.

    Premature execution: loads read committed memory the moment their
    address arrives; stores buffer in the premature queue and reach memory
    only when their body instance has been validated, in global program
    order (the commit frontier).  The arbiter checks each arriving record
    against the queue (Eqs. 2–5); a violation squashes the pipeline from
    the erring iteration and the circuit replays it — the simulator purges
    in-flight tokens and rewinds the loop generator.  Conditional pair
    members send fake tokens (Sec. V-C); a circuit built without them
    never calls [op_skip] and reproduces the deadlock of Fig. 6.  Memory
    answers at {!Pv_dataflow.Memif.mem_latency}, and one validated
    store-carrying instance retires per cycle.

    Load records retire once the {e store-arrival frontier} passes their
    iteration (every store that could accuse them has arrived and been
    checked), long before the commit frontier; per-port quotas make queue
    admission fair, and a dynamic frontier reserve keeps room for the
    current frontier iteration's missing operations.  The reserve does
    not make admission deadlock-free: some generated kernels deadlock at
    some depths (ROADMAP item 1).  See DESIGN.md §8 for each argument. *)

type config = {
  depth_q : int;  (** premature queue depth in simulated entries *)
  value_validation : bool;
      (** Eq. 5 on/off (ablation: off = address-only disambiguation) *)
  collapse_queue : bool;
      (** interior slot reclamation on/off (ablation: off = naive circular
          pointers, prone to fragmentation wedging) *)
  squash_budget : int;
      (** livelock guard: consecutive squashes of the {e same} iteration
          tolerated before the backend degrades to non-speculative load
          admission for the rest of the run.  Unreachable in fault-free
          runs; protects against a stuck external squash source (fault
          injection, a flaky error detector). *)
}

(** Simulated queue entries per named (paper) depth unit: this simulator
    pipelines the datapath into roughly twice as many (thinner) stages as
    the published circuits, so occupancies — and hence the capacity a named
    depth must provide — scale by the same factor.  The LSQ baselines use
    the identical mapping. *)
val depth_scale : int

(** Configuration for a paper-named depth (PreVV16, PreVV64, ...):
    [depth_q = depth_scale * depth]. *)
val named : depth:int -> config

(** Backend state, kept alongside the simulator interface for the
    accessors below. *)
type t

(** Build a backend over [mem] for a schedule of [n_seq] body instances;
    returns the state alongside.  Per-iteration bookkeeping (group,
    arrived ports per disambiguation instance) lives in flat arrays of
    [n_seq] entries, so no per-cycle path allocates.  [trace] (default
    {!Pv_obs.Trace.null}) receives validation/violation instants on the
    arbiter track, fake-token/squash/degraded instants on the backend
    track, and [pq_occupancy]/[commit_frontier] counter tracks; the null
    sink makes every emit site one branch and leaves behaviour unchanged.
    [prof] (default {!Pv_obs.Prof.null}) receives the backend's
    attribution phases: one [arbiter_scan] unit per queue record the load
    gate walks, one [pq_validate] unit per record walked by
    store-violation checking and the per-cycle load-retirement pass, and
    one [mem_service] unit per load/store serviced (so [mem_service]
    equals the memory stats' loads + stores exactly).

    An operation whose iteration has no group, or whose port is not in its
    group's ROM, is refused and named by [describe]; only a fault (a
    dropped control token) presents one.
    @raise Invalid_argument when [depth_q] cannot hold one body instance
    of some disambiguation instance (the message also names the depth a
    user would write, [depth_q / depth_scale], when it divides evenly),
    and (from [begin_instance]) for an
    iteration at or beyond [n_seq]. *)
val create_full :
  ?trace:Pv_obs.Trace.t ->
  ?prof:Pv_obs.Prof.t ->
  config ->
  Pv_memory.Portmap.t ->
  n_seq:int ->
  int array ->
  t * Pv_dataflow.Memif.t

(** Arbiter decision tallies: validation checks, violations found, load
    gate verdicts. *)
val arbiter_stats : t -> Arbiter.stats

(** [Some cycle] once the livelock guard has engaged (see
    [config.squash_budget]); the backend then admits loads
    non-speculatively for the rest of the run. *)
val degraded_at : t -> int option
