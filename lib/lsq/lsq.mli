(** Behavioural load-store queue — the Dynamatic baselines.

    One pooled LSQ serves every ambiguous port (the configuration the
    paper's Fig. 1 measures).  The group allocator reserves load/store
    entries in original program order when a basic-block instance begins
    (ROM + group allocator of Josipović et al.); loads issue out of order
    once every older store's address is known, with store-to-load
    forwarding; stores commit in program order behind a WAR guard.

    The two published variants differ in allocation behaviour:
    - {!plain} ([15], classic Dynamatic): the group token travels through
      the circuit's control network before entries become usable
      ([alloc_delay] cycles), one group allocation per cycle;
    - {!fast} ([8], fast token delivery): allocation is immediate and off
      the critical path.

    Both serve memory at {!Pv_dataflow.Memif.mem_latency}, issue at most 8
    loads and commit at most 4 stores per cycle. *)

type config = {
  depth : int;  (** entries in each of the load and the store queue *)
  alloc_delay : int;  (** cycles before allocated entries become usable *)
  alloc_per_cycle : int;
  forwarding : bool;
      (** store-to-load forwarding on/off (ablation: off = a load waits for
          the matching older store to commit) *)
}

(** The [15] baseline.  Depths are in simulated entries (the paper's
    16-entry default maps to 32 at this simulator's pipeline granularity;
    see DESIGN.md §9). *)
val plain : config

(** The [8] baseline: {!plain} with zero allocation delay and the
    fast-token network. *)
val fast : config

(** Build a backend over [mem].  Queues, per-port response rings and
    per-array port budgets are flat arrays sized here, so no per-cycle
    path allocates.  [trace] (default {!Pv_obs.Trace.null}) receives
    allocation/commit instants on the backend track and an
    [lsq_occupancy] counter track; the null sink makes every emit site one
    branch and leaves behaviour unchanged.  [prof] (default
    {!Pv_obs.Prof.null}) receives the LSQ's attribution phases: one
    [lsq_cam] unit per queue entry the hardware CAM searches: by the
    load-issue check, every store younger than the load plus each older
    store compared up to the first address match (store queue), and by
    the store-commit WAR guard (load queue); and one
    [mem_service] unit per load/store accepted (so [mem_service] equals
    the memory stats' loads + stores exactly).
    @raise Invalid_argument when a group holds more ambiguous ports than
    the 6-bit ROM-position field of the order keys. *)
val create :
  ?trace:Pv_obs.Trace.t ->
  ?prof:Pv_obs.Prof.t ->
  config ->
  Pv_memory.Portmap.t ->
  int array ->
  Pv_dataflow.Memif.t
