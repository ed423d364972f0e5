(** The task lifecycle: per-task deadlines, deterministic retry with
    exponential backoff, and one rendering of a failure.

    {!retry} runs one task's attempt → backoff → attempt loop on the
    calling domain, so it composes with any pool: {!Experiment.sweep}
    runs it on {!Parallel}'s workers and {!Service} on its own.  Every
    failure becomes a value:

    - an uncaught exception marks only that task failed;
    - a per-attempt deadline (cooperative: the task polls its
      {!Token}, the simulator raises {!Pv_dataflow.Sim.Cancelled}) turns a
      runaway task into a retried one instead of a hung grid;
    - failed tasks are retried with seed-deterministic exponential
      backoff up to [max_attempts], then reported as a structured
      {!task_error}.

    DESIGN.md §18 specifies the task lifecycle and policy semantics. *)

(** {1 Cancellation tokens} *)

module Token : sig
  (** A cooperative cancellation token: a flag the owner may set, plus an
      optional monotonic-clock deadline.  Tasks (and {!Pv_dataflow.Sim}
      via its [config.cancel] hook) poll {!cancelled}. *)

  type t

  (** [create ?deadline_s ()] — [deadline_s] is seconds from now on the
      monotonic clock ({!Clock}). *)
  val create : ?deadline_s:float -> unit -> t

  (** Set the flag (idempotent, thread-safe). *)
  val cancel : t -> unit

  (** True once {!cancel} was called or the deadline passed. *)
  val cancelled : t -> bool
end

(** {1 Policy} *)

type policy = {
  max_attempts : int;  (** total tries per task (values below 1 mean 1) *)
  base_delay_s : float;  (** backoff after the first failure *)
  max_delay_s : float;  (** backoff ceiling *)
  deadline_s : float option;  (** per-attempt cooperative deadline *)
  seed : int;  (** jitter seed: same seed => same schedule *)
  retryable : exn -> bool;
      (** which failures are worth retrying; {!default_policy} retries
          everything except [Invalid_argument] (an infeasible
          configuration never becomes feasible) *)
}

(** 3 attempts, 10 ms base, 500 ms ceiling, no deadline, seed 0. *)
val default_policy : policy

(** [backoff_delay policy ~label ~attempt] — the delay in seconds before
    retry number [attempt] (the first retry is [attempt = 1]) of the task
    named [label]: exponential ([base * 2^(attempt-1)], capped at
    [max_delay_s]) with a deterministic jitter factor in [0.5, 1.5)
    derived from [(seed, label, attempt)].  Pure: same policy, label and
    attempt always give the same delay. *)
val backoff_delay : policy -> label:string -> attempt:int -> float

(** The full per-task schedule [backoff_delay ~attempt:1 .. max_attempts-1]
    — what a task would sleep between its successive attempts. *)
val backoff_schedule : policy -> label:string -> float list

(** {1 Task outcomes} *)

type task_error = {
  label : string;  (** e.g. ["gaussian/prevv16"] *)
  attempts : int;  (** attempts actually made *)
  last_error : string;  (** {!describe_exn} of the last exception *)
  deadline_hit : bool;  (** the last failure was a deadline overrun *)
}

val pp_task_error : Format.formatter -> task_error -> unit

(** Deterministic JSON object for an errors section. *)
val task_error_to_json : task_error -> Pv_obs.Json.t

(** The one rendering of a task failure: the bare message of an
    [Invalid_argument], ["deadline exceeded (cancelled at cycle N)"] for
    {!Pv_dataflow.Sim.Cancelled}, [Printexc.to_string] otherwise.  This is
    the text serve's error responses and [prevv sweep] print. *)
val describe_exn : exn -> string

(** {1 Running} *)

(** What one task's retry loop cost, for telemetry. *)
type tally = {
  retries : int;  (** attempts beyond the first *)
  deadline_hits : int;  (** attempts cancelled by their deadline *)
}

(** [retry policy ~label f] runs [f] with a fresh {!Token} per attempt
    (wire it into [Sim.config.cancel] for cooperative deadlines) until it
    returns, fails with a non-retryable exception, or has made
    [max_attempts] attempts, sleeping [backoff_delay ~attempt:n] on the
    calling domain after failed attempt [n].  Never raises: the last
    failure comes back as a {!task_error} named [label]. *)
val retry :
  policy -> label:string -> (token:Token.t -> 'a) -> ('a, task_error) result * tally
