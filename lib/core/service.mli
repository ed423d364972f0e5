(** The experiment service behind [prevv serve]: line-delimited JSON
    requests in, one JSON response line per request out, in request order.

    The service runs each request through the {!Experiment} pipeline as
    one job on a {!Parallel} pool (or inline on the calling domain when
    [jobs <= 1]), each request under {!Supervisor.retry} (per-attempt
    deadline, {!Supervisor.backoff_schedule}, errors rendered by
    {!Supervisor.describe_exn}).  On top of the pool it adds injected
    worker kills (via {!config.kill_at}: the job finds its item in a kill
    list, resubmits it and raises {!Parallel.End_worker}, so the pool
    replaces the worker), identical in-flight requests deduplicated
    against one computation, a bounded pending count with explicit
    load-shedding (an ["overloaded"] response — never a silent drop), and
    graceful drain.  Every accepted line gets exactly one response line; the
    {!summary} proves it with [lost = 0].

    Responses are deterministic: bodies carry no timing or attempt
    counts, so a run at any worker count is byte-identical to the serial
    ([jobs <= 1]) replay of the same request stream (sheds excepted —
    shedding depends on queue dynamics {e and} stamps a timing-derived
    [retry_after_ms] hint, so byte-comparisons must use a capacity the
    stream cannot overflow).  DESIGN.md §18 specifies the protocol.

    Telemetry: an [{"op": "stats"}] control line (and, with
    {!config.stats_interval}, a between-requests timer) emits a
    [{"type": "stats", ...}] frame with live gauges satisfying
    [received = responded + shed + errors + in_flight], queue depths and
    latency percentiles; {!config.log} receives structured LDJSON lines
    for sheds, worker kills, drain and the final summary. *)

(** {1 Requests} *)

type request = {
  id : string;  (** echoed verbatim in the response *)
  kernel : string;  (** bundled kernel name ({!Pv_kernels.Defs.by_name}) *)
  backend : string;  (** scheme name ({!Scheme.of_string}) *)
  engine : Pv_dataflow.Sim.engine;  (** default [Event] *)
  max_cycles : int option;  (** simulation budget override *)
  fault_seed : int option;  (** seeded recoverable fault plan *)
}

(** Parse one request line:
    [{"id": "r1", "kernel": "gaussian", "backend": "prevv16"}] with
    optional ["engine"] (["scan"]/["event"]), ["max_cycles"],
    ["fault_seed"].  Unknown fields are ignored; a missing/ill-typed
    required field is an [Error]. *)
val parse_request : string -> (request, string) result

(** One LDJSON line for [req] — the inverse of {!parse_request}, used by
    the soak drivers. *)
val request_to_json : request -> string

(** [request ~id ~kernel ~backend ()] with the defaults above. *)
val request :
  id:string ->
  kernel:string ->
  backend:string ->
  ?engine:Pv_dataflow.Sim.engine ->
  ?max_cycles:int ->
  ?fault_seed:int ->
  unit ->
  request

(** Content address of a request's computation (salt ["prevv-serve/v1"]):
    equal keys share one in-flight computation and one cache entry. *)
val request_key : request -> string

(** {1 Configuration} *)

type config = {
  jobs : int;  (** worker domains; [<= 1] computes inline (serial reference) *)
  queue_capacity : int;
      (** pending-request bound; beyond it new requests are shed with an
          explicit ["overloaded"] response *)
  policy : Supervisor.policy;  (** retry/backoff/deadline per request *)
  cache : Parallel.Cache.t option;  (** content-addressed result reuse *)
  kill_at : int list;
      (** chaos injection: arrival sequence numbers whose first pickup
          ends its worker domain before computing (the pool spawns a
          replacement, the request is resubmitted); inline, the kill is
          only counted *)
  stats_interval : float option;
      (** emit a [{"type": "stats", ...}] frame at least this many seconds
          apart, checked between requests (the intake loop never wakes just
          to report); [None] (default) = on demand only *)
  log : Pv_obs.Log.t;
      (** structured operational log (default {!Pv_obs.Log.null}): [shed]
          and [worker_killed] at Warn, [drain] and [serve_done] at Info.
          Point it at stderr — response lines own stdout. *)
}

(** 1 job, capacity 256, {!Supervisor.default_policy}, no cache, no
    kills, no periodic stats, null log. *)
val default_config : config

(** {1 Running} *)

type summary = {
  received : int;  (** request lines read *)
  responded : int;  (** response lines emitted *)
  ok : int;
  errors : int;  (** requests that exhausted their retry budget *)
  bad_requests : int;  (** lines that failed {!parse_request} *)
  shed : int;  (** explicit ["overloaded"] responses *)
  dedup_hits : int;  (** requests served by another's in-flight computation *)
  retries : int;  (** extra compute attempts beyond each request's first *)
  worker_kills : int;  (** injected kills that fired; inline ends no domain *)
  respawns : int;  (** the pool's replacement workers; 0 inline *)
  cache_hits : int;
  cache_misses : int;
  lost : int;  (** [received - responded]; the invariant is 0 *)
  wall_s : float;
  requests_per_s : float;
  p50_ms : float;  (** submit-to-response latency percentiles *)
  p95_ms : float;
  p99_ms : float;
}

val summary_to_json : summary -> Pv_obs.Json.t

(** [run config ~next ~emit] pulls request lines from [next] until it
    returns [None] (or {!drain_now} was requested), computes them on the
    supervised pool, calls [emit] with exactly one response line per
    received line {e in arrival order}, drains, and returns the
    {!summary}.  [metrics] (optional) receives [serve.*] counters
    (including latency percentiles and the [serve.queue_depth_max] gauge)
    and the cache's [cache.*] counters.

    [next] is only ever called from the calling domain.  A response is
    emitted as soon as it and every earlier one are done, by the domain
    that completed the last of them, so [emit] may be called from a
    worker domain.  It is never called concurrently, always in arrival
    order, and stats frames are serialised with the responses.  If [emit]
    raises, no further line is emitted or read, the accepted requests
    drain, and [run] re-raises the first such exception on the calling
    domain.

    A shed ([{"status": "overloaded"}]) response carries
    [retry_after_ms]: the backlog ahead of the client in units of
    the EWMA service latency, spread over the worker pool — a backoff
    hint, not a promise.  An [{"op": "stats"}] line is answered with a
    stats frame out-of-band: it takes no sequence number, gets no
    per-request response and does not count toward [received]. *)
val run :
  ?metrics:Pv_obs.Metrics.t ->
  config ->
  next:(unit -> string option) ->
  emit:(string -> unit) ->
  summary

(** Ask the running {!run} loop (typically from a SIGINT handler) to stop
    pulling new requests and drain: every already-accepted request still
    gets its response.  Idempotent; reset when {!run} starts. *)
val drain_now : unit -> unit
