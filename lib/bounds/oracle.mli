(** Perfect-disambiguation reference backend — the cycle {e lower bound}.

    The oracle consults a {!Prescience.t} — the kernel's memory operations
    walked in program order — so it knows every dependency before it
    happens and serializes only {e true} conflicting load/store pairs:

    - a load with no older in-flight conflicting store is served at plain
      memory latency ({!Pv_dataflow.Memif.mem_latency}), with no
      capacity, allocation or bandwidth limits;
    - a load whose conflicting store has already arrived is served at
      forwarding latency (one cycle), matching PreVV's forward gate;
    - a load whose conflicting store is still in flight but whose visible
      memory value coincides with the correct one is served at memory
      latency — exactly the speculations PreVV survives via Eq. 5 value
      validation — and only a {e true} mismatch makes the load wait for
      the store's arrival.

    It never squashes and never replays.  If the observed run diverges
    from the walk (an injected fault corrupted an address or value), the
    oracle {e degrades} deterministically: all waiting and future loads
    are served from visible memory immediately.  Degraded runs still
    terminate and still count as a lower bound candidate, but the
    differential harness treats them as disagreements when their final
    memory differs.

    All state is flat: per-port response rings (a waiting load is a
    record whose ready time its store's arrival fills in), per-slot
    arrival flags and per-address visible-memory owners, so a
    steady-state cycle allocates nothing. *)

type t

(** [create_full ?trace pm mem ~prescience] builds the oracle over the
    flat memory [mem] (mutated in place to the final state); [prescience]
    must have been walked over [mem]'s initial contents. *)
val create_full :
  ?trace:Pv_obs.Trace.t ->
  Pv_memory.Portmap.t ->
  int array ->
  prescience:Prescience.t ->
  t * Pv_dataflow.Memif.t

(** {1 Scheme-specific counters} *)

(** Loads that had to wait for a true conflicting store. *)
val waits : t -> int

(** Loads served early because the visible value coincided with the
    correct one (the PreVV Eq. 5 survival condition). *)
val coincidences : t -> int

(** Loads whose conflicting store had already arrived (forwarded). *)
val forwards : t -> int

(** The oracle fell back to visible-memory service after a divergence. *)
val degraded : t -> bool
