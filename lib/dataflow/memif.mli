(** Contract between the circuit simulator and a memory-disambiguation
    backend (plain memory, LSQ variants, or PreVV).

    Every static load/store site of a kernel is a numbered {e port}.  The
    simulator calls the backend once per firing attempt; a [false]/[None]
    answer means "not accepted this cycle" and exerts backpressure on the
    datapath — that is how allocation stalls and full-queue stalls surface
    as extra cycles.  [clock] advances backend-internal pipelines once per
    simulated cycle. *)

(** Counters a backend accumulates during a run; all monotone. *)
type stats = {
  mutable loads : int;  (** load requests accepted *)
  mutable stores : int;  (** store requests accepted *)
  mutable squashes : int;  (** pipeline squashes triggered *)
  mutable replayed_ops : int;  (** memory ops re-executed after squashes *)
  mutable stall_full : int;  (** port-cycles refused for a full queue *)
  mutable stall_alloc : int;  (** generator-cycles refused at allocation *)
  mutable stall_order : int;  (** port-cycles a load waited for ordering *)
  mutable stall_bw : int;  (** port-cycles refused for memory bandwidth *)
  mutable forwarded : int;  (** loads served by store-to-load forwarding *)
  mutable fake_tokens : int;  (** Skip notifications accepted *)
  mutable max_occupancy : int;  (** high-water mark of the central queue *)
  mutable faults : int;  (** injected backend faults accepted *)
  mutable degraded : int;  (** livelock-guard engagements (squash storms) *)
}

val fresh_stats : unit -> stats
val pp_stats : Format.formatter -> stats -> unit

(** Out-parameter for {!t.load_poll}: the backend fills the slot instead
    of allocating a [(key, value)] pair per response, so polling a load
    port every cycle costs no minor-heap traffic.  The simulator owns one
    slot and reuses it across all ports.  [ls_key] is the packed
    {!Types.Token.t} of the request (the simulator re-stamps the epoch
    field on delivery). *)
type load_slot = { mutable ls_key : Types.Token.t; mutable ls_value : int }

(** A fresh slot ([ls_key = Token.none]). *)
val fresh_slot : unit -> load_slot

(** The backend interface, as a record of closures over its private
    state.  Memory operations carry the packed {!Types.Token.t} of the
    requesting token; backends that only care about program order unpack
    it with {!Types.Token.seq}. *)
type t = {
  begin_instance : seq:int -> group:int -> bool;
      (** called by the generator before emitting body instance [seq] (no
          token exists yet, so this one takes the raw counter); refusing
          stalls the whole front of the pipeline (allocation backpressure) *)
  alloc_group : key:Types.Token.t -> group:int -> bool;
      (** late allocation for a conditional group, from a {!Types.Galloc}
          node once the branch outcome is known *)
  load_req : port:int -> key:Types.Token.t -> addr:int -> bool;
      (** a load port presents its address; accepted requests complete
          later and are retrieved with [load_poll] *)
  load_poll : port:int -> load_slot -> bool;
      (** completed load for this port: [true] fills the slot with the
          response's [(key, value)] and consumes it.  Responses come back
          in request order per port — an elastic access port is a tagless
          stream. *)
  store_req : port:int -> key:Types.Token.t -> addr:int -> value:int -> bool;
  store_addr : port:int -> key:Types.Token.t -> addr:int -> unit;
      (** early address announcement: the store port has computed its
          address but not yet its data (lets an LSQ resolve ordering) *)
  op_skip : port:int -> key:Types.Token.t -> bool;
      (** the op of [port] does not occur for this instance (fake token) *)
  poll_squash : unit -> int option;
      (** pending pipeline squash: [Some seq_err] purges all in-flight
          tokens with [seq >= seq_err] and rewinds the generator *)
  clock : unit -> unit;
  quiesced : unit -> bool;  (** all accepted operations fully committed *)
  stats : unit -> stats;
  inject : Fault.backend_action -> bool;
      (** apply a backend-level fault; [false] = not applicable (no such
          queue entry, squash point already committed, or the backend has
          no speculative state at all) *)
  describe : unit -> string;
      (** human-readable snapshot of internal state for post-mortems *)
}

(** Cycles from an accepted memory access to its response (2), the same
    for every scheme: the LSQ baselines, PreVV and the oracle/serial
    bounds all compare disambiguation over this one memory fabric, and
    the frontend's slack balancing sizes load paths to it. *)
val mem_latency : int

(** Allocating convenience over the slot-filling [load_poll], for tests
    and debug probes that want an option-returning shape. *)
val poll : t -> port:int -> (Types.Token.t * int) option

(** A trivially correct backend over a plain memory: loads and stores are
    served in arrival order with a fixed latency and no disambiguation.
    Only legal for kernels without ambiguous pairs; used in tests and as
    the building block for real backends' committed storage.  Implemented
    over flat per-port arrays, so a steady-state cycle allocates nothing —
    the reference backend for the zero-allocation perf assertions. *)
val direct : latency:int -> int array -> t
