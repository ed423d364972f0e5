(** Span/instant event tracer with a Chrome trace-event JSON sink.

    A [t] either records events into an in-memory buffer ([create]) or is
    the shared nil sink ([null]), whose [enabled] flag is false; every
    emitter checks [enabled] first, so instrumentation sites reduce to a
    single branch when tracing is off.

    Timestamps are simulation cycles, mapped 1 cycle = 1 microsecond in
    the exported file so Perfetto/chrome://tracing timelines read
    directly in cycles.  The process is the kernel under simulation;
    thread ids name subsystems (see the [tid_*] constants). *)

type t

type event = {
  name : string;
  ph : char;  (** 'X' complete, 'i' instant, 'C' counter *)
  ts : int;  (** cycle *)
  dur : int;  (** cycles; 0 unless ph = 'X' *)
  tid : int;
  args : (string * int) list;
}

(** {1 Construction} *)

(** The shared disabled sink: every emitter is a no-op on it. *)
val null : t

(** [create ?limit ()] is an enabled in-memory sink.  After [limit]
    events (default 1_000_000) further events are counted as dropped
    instead of stored, so runaway sims cannot exhaust memory. *)
val create : ?limit:int -> unit -> t

val enabled : t -> bool

(** {1 Thread-id conventions} *)

(** 1 — simulator core: epochs, stalls *)
val tid_sim : int

(** 2 — PreVV backend / LSQ *)
val tid_backend : int

(** 3 — validation / gating decisions *)
val tid_arbiter : int

(** 4 — premature-queue / LSQ occupancy *)
val tid_queue : int

(** 5 — injected faults *)
val tid_fault : int

(** {1 Emitters} (all no-ops on [null]) *)

(** [instant t ~tid ~ts name ~args] records a thread-scoped instant. *)
val instant : t -> tid:int -> ts:int -> ?args:(string * int) list -> string -> unit

(** [complete t ~tid ~ts ~dur name] records a complete span ('X'). *)
val complete : t -> tid:int -> ts:int -> dur:int -> ?args:(string * int) list -> string -> unit

(** [counter t ~tid ~ts name v] records a sample on counter track [name]. *)
val counter : t -> tid:int -> ts:int -> string -> int -> unit

(** {1 Reading and export} *)

(** Recorded events, oldest first. *)
val events : t -> event list

val event_count : t -> int

(** Events lost to the [limit] cap. *)
val dropped : t -> int

(** [to_json ?process t] is the Chrome trace-event document
    [{"traceEvents":[...]}]: metadata events naming the process
    ([process] — typically the kernel name) and each subsystem thread,
    then the recorded events.  Instants carry ["s":"t"]; counters carry
    their value in [args].  Loadable in Perfetto / chrome://tracing. *)
val to_json : ?process:string -> t -> Json.t

(** [write ?process t path] writes [to_json] to [path]. *)
val write : ?process:string -> t -> string -> unit
