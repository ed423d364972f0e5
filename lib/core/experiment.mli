(** One evaluation point: a kernel under a disambiguation scheme, with
    cycle count (simulated), area and clock period (modelled), and
    execution time — one cell group of Tables I and II. *)

type point = {
  kernel : string;
  config : string;
  cycles : int;
  report : Pv_resource.Report.t;
  exec_us : float;
  mem_stats : Pv_dataflow.Memif.stats;
  verified : bool;  (** final memory matched the reference interpreter *)
  metrics : Pv_obs.Metrics.snapshot;
      (** per-run metric snapshot (cycles, fires, backend traffic, arbiter
          tallies — see [Pipeline.simulate]).  Deterministic: identical
          across engines and worker counts, and marshal-safe so it rides
          the result cache. *)
}

(** Run one (kernel, scheme) point: compile, simulate, verify, elaborate.
    [compiled], when given, must be [Pipeline.compile kernel]; it saves
    the compile.
    @raise Invalid_argument for infeasible configurations (e.g. a queue
    depth below one iteration's operation count). *)
val run :
  ?sim_cfg:Pv_dataflow.Sim.config ->
  ?init:(string * int array) list ->
  ?compiled:Pipeline.compiled ->
  Pv_kernels.Ast.kernel ->
  Pipeline.disambiguation ->
  point

(** Content address of one evaluation point: a digest of the kernel AST,
    input data, scheme configuration and simulator configuration (engine,
    budgets, fault plan).  Two cells with equal
    keys produce equal points; wall-clock timing is never part of a point,
    so cached results are exact. *)
val cache_key :
  ?sim_cfg:Pv_dataflow.Sim.config ->
  ?init:(string * int array) list ->
  Pv_kernels.Ast.kernel ->
  Pipeline.disambiguation ->
  string

(** {!run} through a {!Parallel.Cache}: a hit returns the stored point
    without compiling or simulating anything.
    @raise Invalid_argument as {!run} (errors are never cached). *)
val run_cached :
  ?sim_cfg:Pv_dataflow.Sim.config ->
  ?init:(string * int array) list ->
  ?compiled:Pipeline.compiled ->
  cache:Parallel.Cache.t ->
  Pv_kernels.Ast.kernel ->
  Pipeline.disambiguation ->
  point * [ `Hit | `Miss ]

(** Fan (kernel, scheme) cells across [jobs] worker domains (default 1 =
    serial on the calling domain), returning results in cell order.  Each
    cell runs under {!Supervisor.retry} with [policy] (default
    {!Supervisor.default_policy}): a fresh cancellation token per attempt
    is wired into [Sim.config.cancel], crashed or deadline-overrun cells
    are retried with seed-deterministic backoff, and a cell that exhausts
    the budget — or is infeasible, which fails after one attempt — comes
    back as a structured {!Supervisor.task_error} while the rest of the
    grid completes.  Workers never print.

    [metrics] aggregates the sweep: each point's own snapshot is absorbed
    (deterministic), plus [runner.*] telemetry — point/error counts and a
    cycles histogram (deterministic), and the worker count actually used
    ([runner.jobs_effective]), a per-worker load histogram, cache-hit
    deltas, [runner.retries], [runner.task_errors] and
    [runner.deadline_hits] (runtime-dependent by nature; drop
    [runner.]-prefixed entries when comparing runs). *)
val sweep :
  ?policy:Supervisor.policy ->
  ?sim_cfg:Pv_dataflow.Sim.config ->
  ?cache:Parallel.Cache.t ->
  ?metrics:Pv_obs.Metrics.t ->
  ?jobs:int ->
  (Pv_kernels.Ast.kernel * Pipeline.disambiguation) list ->
  (point, Supervisor.task_error) result list

(** The paper's four evaluated configurations, in table-column order:
    [15], [8], PreVV16, PreVV64. *)
val paper_configs : unit -> Pipeline.disambiguation list

(** [kernel] under each of {!paper_configs}, in order, compiled once. *)
val paper_points : Pv_kernels.Ast.kernel -> point list

(** The full grid for the paper's five kernels (Tables I & II): one row
    per kernel, one point per configuration.  [jobs] fans the cells across
    that many worker domains (default 1 = serial); [cache] reuses stored
    points.  The result is identical whatever the worker count.
    @raise Failure naming the cell if any cell fails past its retry
    budget. *)
val paper_grid :
  ?sim_cfg:Pv_dataflow.Sim.config ->
  ?cache:Parallel.Cache.t ->
  ?jobs:int ->
  unit ->
  point list list

(** Deterministic JSON rendering of a point — the byte-identity surface
    of the parallel-vs-serial determinism harness. *)
val point_to_json : point -> string

(** Percentage delta [100 * (a/b - 1)], integer and float versions. *)
val pct : int -> int -> float

val pctf : float -> float -> float

(** Geometric mean of a non-empty list of ratios. *)
val geomean : float list -> float
