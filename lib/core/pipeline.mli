(** Top-level flow: kernel → analysis → circuit → simulation → check.

    This is the API the examples, CLI and benchmarks use.  It mirrors the
    paper's toolchain: Dynamatic elaboration ({!Pv_frontend.Build}),
    backend selection through the {!Scheme} registry (LSQ baselines [15]
    [8], PreVV, oracle/serial reference bounds), and the ModelSim-vs-C++
    check (simulation vs the reference interpreter). *)

(** The configuration of a registered scheme ({!Scheme.disambiguation});
    its constructors, its canonical values ({!Scheme.prevv} and the
    others), its names ({!Scheme.to_string}) and all matching on them live
    in {!Scheme}. *)
type disambiguation = Scheme.disambiguation

(** A compiled kernel: analysis results and the elaborated circuit. *)
type compiled = {
  kernel : Pv_kernels.Ast.kernel;
  info : Pv_frontend.Depend.info;
  layout : Pv_memory.Layout.t;
  trace : Pv_frontend.Trace.t;
  graph : Pv_dataflow.Graph.t;
}

val compile : ?options:Pv_frontend.Build.options -> Pv_kernels.Ast.kernel -> compiled

(** The one seeded fault-plan rule ([prevv run --fault-seed], a serve
    request's [fault_seed]): a deterministic random plan of recoverable
    faults over the circuit's channels, with squash targets below the
    kernel's instance count and events armed within the first
    [100 + 4 * instances] cycles. *)
val seeded_faults : compiled -> seed:int -> Pv_dataflow.Fault.plan

type result = {
  outcome : Pv_dataflow.Sim.outcome;
  cycles : int;
  mem : int array;  (** final flat memory *)
  mem_stats : Pv_dataflow.Memif.stats;
  run_stats : Pv_dataflow.Sim.run_stats;
}

(** Instantiate the chosen scheme over a flat memory via the registry,
    returning the live {!Scheme.instance} (simulator interface + metric
    hook).  [trace] and [prof] are threaded to the backend's
    instrumentation (defaults: the null sinks). *)
val backend_full :
  ?trace:Pv_obs.Trace.t ->
  ?prof:Pv_obs.Prof.t ->
  compiled ->
  int array ->
  disambiguation ->
  Scheme.instance

(** Instantiate the chosen backend over a flat memory. *)
val backend_of : compiled -> int array -> disambiguation -> Pv_dataflow.Memif.t

(** The diagnosis attached to a [Deadlock]/[Timeout] outcome, if any. *)
val post_mortem : result -> Pv_dataflow.Sim.post_mortem option

(** Simulate under the chosen scheme; [init] defaults to the kernel's
    {!Pv_kernels.Workload.default_init}.

    [obs_trace] (default {!Pv_obs.Trace.null}) is threaded through the
    simulator and the backend: epoch spans, squash/validation/fake-token
    instants, occupancy and in-flight counter tracks.  [prof] (default
    {!Pv_obs.Prof.null}) is likewise threaded to both and, when enabled,
    attributes every unit of simulated work to a phase
    ([circuit_sweep]/[arbiter_scan]/[pq_validate]/[lsq_cam]/[mem_service])
    and per-node counters — the engine behind [prevv run --profile].
    [metrics] is filled post-run from the engine-invariant result (cycles,
    fires, backend traffic — never the engine-dependent eval count) plus
    the scheme's own [scheme.<name>.*] counters, so snapshots are
    deterministic across engines and worker counts, and recording can
    never perturb the simulation.  When an enabled [obs_trace] is given
    alongside [metrics], the snapshot also records
    [trace.dropped_events] — non-zero means the Chrome export is
    truncated and its ring limit should be raised. *)
val simulate :
  ?sim_cfg:Pv_dataflow.Sim.config ->
  ?init:(string * int array) list ->
  ?obs_trace:Pv_obs.Trace.t ->
  ?prof:Pv_obs.Prof.t ->
  ?metrics:Pv_obs.Metrics.t ->
  compiled ->
  disambiguation ->
  result

(** Check a result against the reference interpreter on the same inputs;
    mismatches as (array, index, expected, got). *)
val verify :
  ?init:(string * int array) list ->
  compiled ->
  result ->
  (string * int * int * int) list

(** Compile + simulate + verify; [Error] carries a rendered message for
    non-completion or any memory mismatch. *)
val check :
  ?sim_cfg:Pv_dataflow.Sim.config ->
  ?init:(string * int array) list ->
  Pv_kernels.Ast.kernel ->
  disambiguation ->
  (result, string) Stdlib.result
