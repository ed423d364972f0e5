(** Domain-parallel job execution for the experiment grid, plus a
    content-addressed result cache.

    The whole kernel × scheme × depth evaluation grid is embarrassingly
    parallel: every point compiles its own circuit, simulates against its
    own backend instance and elaborates its own netlist, with no shared
    mutable state (see DESIGN.md §14 for the audit).  This module supplies
    the two pieces the drivers need:

    - a fixed-size worker {!pool} (stdlib [Domain] + [Mutex]/[Condition],
      no external dependencies) with a shared job queue and an
      order-preserving {!map} on top;
    - a {!Cache} keyed by a digest of everything that determines a result
      (kernel source, scheme configuration, simulator configuration,
      inputs), so repeated table/sweep invocations reuse prior points.

    Workers must never print: all [Format]/[Printf]/[Buffer] rendering
    happens on the calling domain after the jobs return, which is what
    makes parallel output byte-identical to serial output. *)

(** A sensible worker count for this machine:
    [Domain.recommended_domain_count () - 1], clamped to [1, 8]. *)
val default_jobs : unit -> int

(** {1 Worker pool} *)

type pool
(** A fixed number of worker domains draining one shared job queue.  This
    is the only place the repo spawns domains: the grid drivers and
    {!Service} both run their jobs here. *)

(** Spawn [jobs] worker domains (at least one). *)
val create : jobs:int -> pool

(** Completed jobs per worker — the pool-utilisation telemetry behind the
    observability layer's [runner.worker_jobs] metric.  Each worker counts
    only its own slot (race-free by construction); the counts are exact
    after {!shutdown}, and a live read may lag by the jobs in flight. *)
val worker_jobs : pool -> int list

(** Enqueue a job.  The job runs on some worker domain; it must do its own
    synchronisation for any shared result slot and must not print.
    @raise Invalid_argument after {!shutdown}. *)
val submit : pool -> (unit -> unit) -> unit

(** Stop accepting jobs, drain the queue, and join the workers spawned by
    {!create}; the pool never replaces one.  Jobs must not raise: one that
    does ends its worker, and [shutdown] re-raises its exception.
    Idempotent. *)
val shutdown : pool -> unit

(** [map_pool pool f xs] runs [f] on every element using the pool's
    workers and returns the results in input order.  If any job raised,
    the exception of the smallest-index failing element is re-raised after
    all jobs have completed (unlike serial [List.map], later elements are
    still evaluated). *)
val map_pool : pool -> ('a -> 'b) -> 'a list -> 'b list

(** Upper bound on any worker-count request (64). *)
val max_jobs : int

(** [effective_jobs jobs]: the worker count {!map} (and the experiment
    drivers) will actually use — the request itself, clamped to
    [\[1, max_jobs\]].  An explicit request is honoured exactly: [--jobs 2]
    runs 2 workers even where [Domain.recommended_domain_count ()] is 1
    (the previous hardware clamp silently collapsed such requests to a
    single worker).  Only {!default_jobs} adapts to the machine. *)
val effective_jobs : int -> int

(** [map ~jobs f xs]: {!map_pool} on a transient pool of
    [effective_jobs jobs] workers.  With an effective count of 1 (or
    fewer than two elements) this is exactly [List.map f xs] on the
    calling domain — the serial reference the determinism harness
    compares against.  [jobs] defaults to {!default_jobs}. *)
val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list

(** {1 Result cache} *)

module Cache : sig
  (** Content-addressed memoisation of experiment results, safe under
      concurrent writers from multiple processes.

      Values are stored marshalled, in memory and (optionally) on disk,
      sharded by key prefix as [dir/<key\[0..1\]>/<key>.bin].  Each disk
      entry is framed (magic + payload digest) and published by an
      advisory-lock + atomic-rename protocol: writers stage a
      per-(pid, domain)-unique temp file and rename it under a per-shard
      advisory lock; readers take no lock because the frame digest rejects
      every torn state.  A disk entry that fails any check — truncated
      write, short read, garbage, stale binary layout — is treated as a
      miss {e and repaired} (unlinked, recomputed, rewritten); leftover
      temp files from crashed writers are swept on {!on_disk}.

      {b The key must determine the value's type as well as its contents}:
      [memo] unmarshals whatever the key maps to.  Callers achieve this by
      salting keys with a schema tag (see {!Experiment.cache_key}).  Only
      marshal-safe values (no closures) may be cached. *)

  type t

  (** Memory-only cache (per-process).  [max_mem] caps the in-memory
      entry count (default 65536); beyond it entries are evicted
      oldest-insertion-first.  [log] (default {!Pv_obs.Log.null}) gets one
      [cache_repair] Warn line per corrupt entry repaired. *)
  val in_memory : ?max_mem:int -> ?log:Pv_obs.Log.t -> unit -> t

  (** Disk-backed cache rooted at [dir] (created if missing; stale temp
      files from crashed writers are swept).  [max_mem] and [log] as in
      {!in_memory} — eviction only drops the in-memory mirror, never the
      disk entry. *)
  val on_disk : ?max_mem:int -> ?log:Pv_obs.Log.t -> dir:string -> unit -> t

  (** [$PREVV_CACHE_DIR] if set, else ["_prevv_cache"]. *)
  val default_dir : unit -> string

  (** [memo t ~key compute] returns the cached value for [key], or runs
      [compute], stores its result and returns it.  Thread-safe; may be
      called from pool workers.  Exceptions from [compute] propagate and
      nothing is stored. *)
  val memo : t -> key:string -> (unit -> 'a) -> 'a * [ `Hit | `Miss ]

  (** Hit/miss/repair/eviction counters since creation (or
      {!reset_stats}). *)
  val hits : t -> int

  val misses : t -> int

  (** Corrupt disk entries detected and unlinked by the read path. *)
  val repairs : t -> int

  (** In-memory entries dropped by the [max_mem] cap. *)
  val evictions : t -> int

  (** Add the four counters into a {!Pv_obs.Metrics} registry as
      [cache.hits] / [cache.misses] / [cache.repairs] / [cache.evictions]
      (totals since creation or {!reset_stats}). *)
  val record_metrics : t -> Pv_obs.Metrics.t -> unit

  val reset_stats : t -> unit
end
