(** Dependency-free structured logger: one LDJSON line per event, with a
    level, a monotonic timestamp and optional request-scoped ids.

    The service layer (Service / Cache) adopts this in place of silent
    behaviour: sheds, cache repairs and drain transitions each become one
    machine-readable line on the caller-supplied sink (typically stderr,
    never stdout — response streams stay clean).

    Like {!Trace}, the module has a {!null} instance whose emit sites
    reduce to one branch, so logging can be threaded unconditionally
    through hot paths.  [pv_obs] has no Unix dependency, so the timestamp
    source is injected: callers pass a monotonic [now_ms] (e.g. from
    [Pv_core.Clock]); the default is a per-logger event counter, which
    keeps lines ordered and tests deterministic. *)

type level = Debug | Info | Warn | Error

val level_name : level -> string

(** [level_of_string "warn"] — case-insensitive; [None] on junk. *)
val level_of_string : string -> level option

type t

(** The disabled logger: every emit is a no-op. *)
val null : t

(** [create ?level ?now_ms sink] — a logger writing one complete LDJSON
    line per event to [sink].  Events below [level] (default [Info]) are
    suppressed.  [now_ms] supplies the [ts_ms] field (monotonic
    milliseconds); default is an event counter. *)
val create : ?level:level -> ?now_ms:(unit -> float) -> (string -> unit) -> t

(** True when a message at [level] would be emitted — guard expensive
    field construction with this. *)
val enabled : t -> level -> bool

(** A copy of [t] that stamps every line with [rid] (request-scoped id);
    cheap, shares the sink and level. *)
val with_rid : t -> string -> t

(** [msg t level "event" ~fields] — emit one line:
    [{"ts_ms":..,"level":"..","msg":"event","rid":..,<fields>}]. *)
val msg : t -> level -> string -> fields:(string * Json.t) list -> unit

val debug : t -> string -> fields:(string * Json.t) list -> unit
val info : t -> string -> fields:(string * Json.t) list -> unit
val warn : t -> string -> fields:(string * Json.t) list -> unit
val error : t -> string -> fields:(string * Json.t) list -> unit
