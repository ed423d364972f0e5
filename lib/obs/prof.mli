(** Cycle-attribution profiler for the data-oriented simulator core.

    When enabled, every node evaluation and every unit of backend work is
    bucketed into a small set of {e phases} — the circuit sweep itself plus
    the backend inner loops that ROADMAP item 1 says now dominate streaming
    kernels (the PreVV arbiter's premature-queue scan, its value-validation
    pass, the LSQ CAM search, and memory service proper).  Per node, the
    profiler additionally tallies evaluations and {e stall reasons} (the
    same classification the deadlock post-mortem uses), so a hot node's
    time can be split into fired-vs-blocked and the blocked part explained.

    Cost model: the disabled profiler ({!null}) reduces every
    instrumentation site to one branch on {!enabled} and is exercised by
    the zero-allocation contract in test/test_sim_perf.ml; the enabled
    profiler only increments preallocated flat [int array]s — it never
    allocates on the per-cycle path and never perturbs simulated behaviour
    (cycles, evals, fires are bit-identical with it on or off).

    Output: a per-phase cycle budget ({!phase_totals} — the counts sum to
    {!total} by construction), top-N hot-node tables ({!hot_nodes}, {!pp}),
    a JSON document ({!to_json}) and folded-stack lines ({!folded},
    [kernel;phase;node opcode count]) directly renderable as a flamegraph
    by the usual [flamegraph.pl] / speedscope tooling. *)

type t

(** The disabled profiler: every operation is a no-op, {!enabled} is
    false. *)
val null : t

(** A live profiler.  Call {!set_nodes} before the first {!node_eval}. *)
val create : unit -> t

val enabled : t -> bool

(** {1 Phases}

    Phases are small dense ints so the hot increment is one array write. *)

val phase_circuit_sweep : int
(** one unit per node evaluation (either engine's dispatch loop) *)

val phase_arbiter_scan : int
(** one unit per premature-queue record scanned by the PreVV arbiter's
    load gate (the per-operation queue walk) *)

val phase_pq_validate : int
(** one unit per queue record scanned by store-arrival violation checking
    (premature value validation, Eqs. 2–5) *)

val phase_lsq_cam : int
(** one unit per LSQ entry searched by the CAM loops (older-store scan on
    load issue, WAR guard on store commit) *)

val phase_mem_service : int
(** one unit per load/store actually serviced against memory *)

val n_phases : int

(** {1 Stall reasons} (mirror of the post-mortem classification) *)

val reason_starved : int  (** a wired input is empty *)

val reason_backpressured : int  (** an output register is occupied *)

val reason_refused : int  (** inputs ready but the memory backend refused *)

val reason_frozen : int  (** held by an injected fault stall *)

val reason_internal : int  (** work stuck inside a FU pipe / buffer ring *)

val reason_other : int

(** {1 Recording} (hot path — no allocation) *)

(** Size the per-node tables: one [(opcode, label)] pair per dense node
    id.  The simulator calls this once at build time. *)
val set_nodes : t -> (string * string) array -> unit

(** Size the per-channel held table: one [(source label, destination
    label)] pair per channel id.  The simulator calls this once at build
    time. *)
val set_chans : t -> (string * string) array -> unit

(** Per-channel held counts, indexed by channel id: the cycles at whose
    clock edge the channel register held a token.  The live table — the
    simulator increments it in place after each commit; readers must not
    mutate it.  Empty on {!null}. *)
val chan_held : t -> int array

(** Record one evaluation of node [nid]: bumps the node's eval counter and
    the [circuit_sweep] phase. *)
val node_eval : t -> int -> unit

(** Record [n] units of backend work in [phase]. *)
val add : t -> phase:int -> int -> unit

(** Record that node [nid] was evaluated but did not fire, for [reason]. *)
val stall : t -> int -> reason:int -> unit

(** {1 Reports} *)

(** Sum over all phases — the run's total attributed work. *)
val total : t -> int

(** Per-phase budget, indexed by phase id (a copy).  Sums to {!total}. *)
val phase_totals : t -> int array

type hot = {
  nid : int;
  opcode : string;
  label : string;
  evals : int;
  stalls : int array;  (** indexed by stall reason *)
}

(** The [top] nodes by eval count, descending (ties broken by node id, so
    the table is deterministic). *)
val hot_nodes : t -> top:int -> hot list

(** Folded-stack lines, one per non-zero bucket:
    [kernel;circuit_sweep;n<ID> <OPCODE> <COUNT>] for node evals and
    [kernel;<PHASE> <COUNT>] for backend phases.  The summed counts equal
    {!total}. *)
val folded : t -> kernel:string -> string

(** Parse folded lines back into [(stack frames, count)] rows — the
    round-trip check for the folded emitter.  Ill-formed lines are an
    [Error]. *)
val parse_folded : string -> ((string list * int) list, string) result

(** Full report document: kernel, total, per-phase counts and shares,
    top-N hot nodes with stall breakdowns. *)
val to_json : ?top:int -> t -> kernel:string -> Json.t

(** Human-readable per-phase budget + top-N hot-node table. *)
val pp : ?top:int -> Format.formatter -> t -> unit

(** {1 Utilisation view}

    Per-node fire rate and per-channel occupancy over a profiled run: the
    data behind [prevv run --profile] for finding a circuit's throughput
    bottleneck (which component fires least often, which channels sit full
    waiting).  Node fire counts come from the simulator's run statistics;
    labels and held counts from the tables {!set_nodes} and {!set_chans}
    sized. *)

type node_use = {
  nu_id : int;
  nu_label : string;  (** [label#id] *)
  nu_fires : int;
  nu_utilisation : float;  (** fires / cycles *)
}

type chan_use = {
  cu_id : int;
  cu_src : string;  (** producer label *)
  cu_dst : string;  (** consumer label *)
  cu_held : int;  (** cycles the register held a token (see {!chan_held}) *)
  cu_pressure : float;  (** held / cycles: 1.0 = permanently occupied *)
}

type usage = {
  cycles : int;  (** the run's cycle count, at least 1 *)
  nodes : node_use list;
      (** nodes whose opcode is not ["sink"], lowest utilisation first *)
  chans : chan_use list;  (** highest pressure first *)
}

(** The view of a profiled run of [cycles] cycles; [fires] is indexed by
    node id.  Ties keep the higher id first. *)
val usage : t -> cycles:int -> fires:int array -> usage

(** Deterministic JSON rendering (stable field and list order); [outcome]
    names how the run ended. *)
val usage_to_json : usage -> outcome:string -> Json.t

(** The initiation interval implied by the total cycle count:
    [cycles / instances]. *)
val initiation_interval : usage -> instances:int -> float

(** Print the [top] (default 8) most backpressured channels and least
    utilised components. *)
val pp_usage : ?top:int -> Format.formatter -> usage -> unit
