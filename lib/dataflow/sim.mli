(** Cycle-accurate simulation of an elastic dataflow graph against a
    memory-disambiguation backend.

    Timing model: every channel behaves as a one-deep elastic register (the
    canonical latency-insensitive wire), so every component contributes one
    pipeline stage; functional units may add [default_latency] further
    internal stages (fully pipelined, initiation interval 1).  Nodes are
    evaluated once per cycle in consumers-before-producers order, so a
    full register chain streams one token per cycle; stalls arise only
    from structural hazards and memory backpressure.  That order is also what lets channel
    registers be written in place: a token put this cycle reaches its
    consumer, which already ran, only next cycle.  It exists only for an
    acyclic graph, so the simulator accepts acyclic graphs only.

    One loop runs that semantics in two regimes: a dense one that
    evaluates every node every cycle, and a sparse one that evaluates only
    the wake set, the nodes that can possibly fire (see the wake-set
    invariant in DESIGN.md §12).  The {!engine} picks the policy: [Event]
    switches regimes on the fire rate, [Scan] pins the dense regime.  The
    two are cycle-equivalent — same outcomes, cycle counts, per-node fire
    counts and backend traffic — so comparing them checks the wake set;
    test/test_sim_equiv.ml and a fuzz property enforce it.

    Representation: the simulation state is data-oriented — flat int arrays
    indexed by dense node/channel ids, a dense opcode dispatch table built
    once at {!create}, int-bitset wake sets and ring-buffer queue state —
    so a steady-state cycle performs zero minor-heap allocation
    (test/test_sim_perf.ml asserts this; DESIGN.md §19 describes the
    layout).  The state is consequently abstract; tools read it through the
    {{!section:accessors} accessors} below.

    Squash/replay: when the backend reports a mis-speculation at [seq_err],
    the simulator bumps the global epoch, purges every in-flight token with
    [seq >= seq_err] (channels, buffers, functional-unit pipelines) and
    rewinds the loop-nest generator, which then re-emits the squashed body
    instances. *)

(** Evaluation policy: [Scan] pins the dense regime (every node, every
    cycle); [Event] starts sparse (the wake set only) and goes dense while
    at least half the nodes fire.  Cycle-equivalent by construction. *)
type engine = Scan | Event

val string_of_engine : engine -> string
val engine_of_string : string -> engine option

type config = {
  max_cycles : int;
  stall_limit : int;
      (** cycles without any token movement before declaring deadlock *)
  faults : Fault.plan;
      (** transient disturbances to inject during the run (resilience
          testing); empty for a fault-free simulation *)
  engine : engine;
      (** evaluation strategy; both engines are cycle-equivalent *)
  cancel : unit -> bool;
      (** cooperative cancellation token, polled by {!drive} between cycles
          (every 64th); when it turns true the run raises {!Cancelled}.
          Cancellation never affects a completed result, so the token is
          deliberately absent from result-cache fingerprints.  Default: a
          token that never turns true. *)
}

(** Raised by {!drive} when [cancel] turns true mid-run — the supervision
    layer's per-task deadline mechanism (DESIGN.md §18). *)
exception Cancelled of { at_cycle : int }

(** Raised by {!create} on a graph with a directed cycle.  {!Check} accepts
    a cycle through an opaque buffer, but such a graph has no
    consumers-before-producers order, which the in-place channel
    registers need. *)
exception Cyclic_graph

(** Extra internal stages of a functional unit beyond its channel
    register (0 = purely combinational): mul 2, div/rem 3,
    constant-multiply 0, everything else 0 — the few-fat-stage pipelining
    implied by the paper's 7–9 ns clock periods.  The one latency model of
    every simulation and of the frontend's slack balancing. *)
val default_latency : Types.binop -> int

(** Event engine, no faults, 2M-cycle budget. *)
val default_config : config

(** The functional units by dense code, as the dispatch arms evaluate
    them: [eval_binop_code (Types.binop_code op) = Types.eval_binop op]
    and [eval_unop_code (Types.unop_code op) = Types.eval_unop op] (checked
    by test/test_dataflow.ml).
    @raise Invalid_argument on a code outside the table. *)
val eval_binop_code : int -> int -> int -> int

val eval_unop_code : int -> int -> int

(** Diagnosis attached to a non-[Finished] outcome: enough state to tell a
    starved pipeline from a backpressured one from a wedged backend without
    re-running under a debugger. *)
type post_mortem = {
  pm_at_cycle : int;
  pm_last_progress : int;  (** cycle of the last token movement *)
  pm_epoch : int;  (** squash epoch at the end (number of squashes seen) *)
  pm_occupied : int;  (** channel registers still holding a token *)
  pm_tokens : (Types.chan_id * Types.token) list;  (** in-flight tokens (capped) *)
  pm_oldest_seq : int option;  (** oldest in-flight iteration anywhere *)
  pm_stalled : (Types.node_id * string * string) list;
      (** (node, label, stall reason) for nodes blocked with work, capped
          at 16: a store port refusing mis-paired data first, then nodes
          refused by the backend, frozen by an injected stall or holding
          stuck internal state, then backpressured and starved nodes;
          node-id order within each class *)
  pm_stalled_total : int;  (** nodes blocked with work, before the cap *)
  pm_gens : (Types.node_id * int * bool) list;
      (** generator (node, next seq, exhausted) *)
  pm_fault_stalls : Types.chan_id list;  (** channels under an injected stall *)
  pm_backend : string;  (** backend state snapshot ({!Memif.t.describe}) *)
  pm_faults : Fault.application list;  (** what each planned fault did *)
}

type outcome =
  | Finished of { cycles : int }
  | Deadlock of { at_cycle : int; post_mortem : post_mortem }
  | Timeout of { at_cycle : int; post_mortem : post_mortem }

(** ["finished"], ["deadlock"] or ["timeout"]. *)
val outcome_name : outcome -> string

val pp_outcome : Format.formatter -> outcome -> unit
val pp_post_mortem : Format.formatter -> post_mortem -> unit

type run_stats = {
  cycles : int;
  node_fires : int array;  (** per node id *)
  gen_instances : int;  (** body instances emitted, including replays *)
  evals : int;
      (** total node evaluations; under [Scan] this is nodes x cycles,
          under [Event] only the awake subset *)
}

(** {1 Stepping interface}

    {!drive} is the one run loop: it alone decides termination (finished,
    timeout, deadlock) and polls cancellation.  A tool that needs to look
    at every cycle, such as the waveform dumper, passes a hook to it and
    reads state through the accessors.  {!step} is exposed for tests and
    micro-benchmarks that advance a simulation by hand. *)

type t

(** Validate the graph and build the initial state (evaluation order,
    dispatch tables, flat channel arrays).  [trace] (default
    {!Pv_obs.Trace.null}) receives epoch spans, squash/fault instants and
    an in-flight-token counter track; the null sink reduces every emit
    site to one branch and provably leaves behaviour unchanged
    (test/test_obs.ml).  [prof] (default {!Pv_obs.Prof.null}) receives
    per-node evaluation counts (the [circuit_sweep] phase), stall-reason
    tallies mirroring the post-mortem classification and per-channel held
    counts ({!Pv_obs.Prof.chan_held}); profiling is
    read-only — cycles, evals and fires are identical with it on or off —
    and the disabled profiler costs one cached branch per evaluation, so
    the zero-allocation contract holds unchanged (test/test_sim_perf.ml).
    @raise Check.Invalid on a structurally invalid graph.
    @raise Cyclic_graph on a graph with a directed cycle. *)
val create :
  ?cfg:config ->
  ?trace:Pv_obs.Trace.t ->
  ?prof:Pv_obs.Prof.t ->
  Graph.t ->
  Memif.t ->
  t

(** Advance one cycle: apply due faults, poll squashes, evaluate nodes
    (all of them in the dense regime, the wake set in the sparse one),
    switch regime if the engine allows, clock the backend. *)
val step : t -> unit

(** True once the generator is exhausted, every channel/buffer/pipe is
    empty, and the backend has quiesced.  O(1): maintained occupancy
    counters, no state scan. *)
val finished : t -> bool

(** Purge every in-flight token with [seq >= seq_err] (channel registers,
    buffers, FU pipelines, announced stores) and rewind the generators —
    the squash recovery action.  Allocation-free: ring-held records are
    compacted in place.  {!step} invokes it on a backend squash report and
    then, in the sparse regime, re-arms the wake set; a caller stepping an
    [Event] simulation by hand should let [step] drive it. *)
val purge : t -> seq_err:int -> unit

(** What each planned fault did (or why it never fired). *)
val fault_log : t -> Fault.application list

(** Step [t] until it finishes, exceeds [cfg.max_cycles] ([Timeout]) or
    makes no progress for [cfg.stall_limit] cycles ([Deadlock]), polling
    [cfg.cancel] every 64th cycle.  [before_step] runs before each step.
    Closes the trace with the outcome: final epoch span, outcome instant
    and, on deadlock/timeout, one stall-reason instant per blocked node.
    @raise Cancelled when [cfg.cancel] turns true. *)
val drive : ?before_step:(unit -> unit) -> t -> outcome * run_stats

(** [drive (create ?cfg ?trace ?prof g mem)]. *)
val run :
  ?cfg:config ->
  ?trace:Pv_obs.Trace.t ->
  ?prof:Pv_obs.Prof.t ->
  Graph.t ->
  Memif.t ->
  outcome * run_stats

(** {1:accessors Read-only accessors} *)

val graph : t -> Graph.t
val cycle : t -> int

(** Squash epoch (number of squashes seen so far). *)
val epoch : t -> int

(** Total node evaluations so far. *)
val evals : t -> int

(** Node [nid]'s fire count so far (the simulator counts by evaluation
    slot and maps the id here, allocating nothing). *)
val fire_count : t -> Types.node_id -> int

(** The channel register currently holds a token. *)
val chan_occupied : t -> Types.chan_id -> bool

(** The channel register's current token, if any.  Allocates; use
    {!chan_occupied} in per-cycle loops that only need presence. *)
val chan_token : t -> Types.chan_id -> Types.token option
