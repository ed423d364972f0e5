(** The premature queue of Sec. IV-B / Fig. 4.

    A circular buffer of premature-operation records.  The tail advances
    when a new operation is recorded; the head advances past retired
    entries.  Because commits follow program order while the queue is in
    arrival order, retired entries can sit behind younger live ones; by
    default the queue {e collapses} such interior gaps (a shift/valid-bit
    structure, as real load/store queues use) — without collapsing,
    fragmentation eventually wedges the oldest iteration out of the queue
    and deadlocks the pipeline (kept available as an ablation).

    Records live in four parallel int arrays rather than boxed cells, and
    the queue maintains dense {e kind views} ([v_load]/[v_store]: the slot
    numbers of all valid records of each kind) mirroring the CAM banks a
    hardware arbiter searches — an arriving store only accuses loads
    (Eq. 3) and the load gate only looks for stores, so each arbiter check
    touches exactly the opposite-kind records instead of the whole
    queue. *)

(** One premature record — the four properties of Eq. 1 plus the ROM
    position used for same-iteration ordering.  A materialised (boxed)
    view of a queue slot, built on demand for tests, dumps and fault
    hooks; the flat arrays below are the state proper. *)
type entry = {
  e_seq : int;  (** iteration (body-instance) number: [iter] of Eq. 1 *)
  e_pos : int;  (** ROM position within the group (same-iteration order) *)
  e_port : int;
  e_kind : Pv_memory.Portmap.op_kind;  (** [Op] of Eq. 1 *)
  e_index : int;  (** target address: [index] of Eq. 1 *)
  e_value : int;  (** loaded or to-be-stored value: [value] of Eq. 1 *)
  mutable e_valid : bool;
}

(** {1 Packed program-order keys}

    [(seq, ROM position)] in one word, so Eq. 2's strictly-older test — a
    lexicographic comparison — is a single integer compare.  Six position
    bits cover the 62-port arrival-bitmask limit the backend enforces. *)

val pos_bits : int
val max_pos : int

val okey : seq:int -> pos:int -> int
val okey_seq : int -> int
val okey_pos : int -> int

(** Port field of a metadata word (bit 0 = valid, bit 1 = store?, rest =
    port). *)
val m_port : int -> int

type t = private {
  depth : int;
  collapse : bool;
  key : int array;  (** slot -> packed (seq, pos); see {!okey} *)
  meta : int array;  (** slot -> packed (port, kind, valid); 0 when free *)
  index : int array;
  value : int array;
  vpos : int array;  (** slot -> position inside its kind view *)
  v_load : int array;  (** slots of valid load records, unordered *)
  v_store : int array;  (** slots of valid store records, unordered *)
  mutable n_load : int;
  mutable n_store : int;
  mutable head : int;
  mutable tail : int;
  mutable count : int;  (** occupied slots, including invalidated ones *)
  mutable dead : int;
      (** invalidated entries still occupying slots; compaction is skipped
          entirely while it is zero *)
}

(** @raise Invalid_argument when [depth <= 0]. *)
val create : ?collapse:bool -> int -> t

val is_full : t -> bool
val is_empty : t -> bool
val occupancy : t -> int

(** Fig. 4 state: [`Normal] when the live region does not wrap, [`Wrapped]
    when it does, [`Full] when head = tail with data. *)
val state : t -> [ `Empty | `Normal | `Wrapped | `Full ]

(** Admission at the tail, allocation-free: [false] when the queue is full,
    so callers turn a full queue into ordinary backpressure.
    @raise Invalid_argument when [pos] exceeds {!max_pos}. *)
val record :
  t ->
  seq:int ->
  pos:int ->
  port:int ->
  kind:Pv_memory.Portmap.op_kind ->
  index:int ->
  value:int ->
  bool

(** Fold over valid entries from head to tail (arrival order).  Each
    visit materialises a boxed {!entry}: dump, test and reference paths
    only — the arbiter reads the kind views and flat arrays directly. *)
val fold : ('a -> entry -> 'a) -> 'a -> t -> 'a

(** {1 Allocation-free retirement sweeps}

    The backend's per-cycle paths: one pass over the occupied region,
    [on_port] fired once per retiree (for per-port credit release), one
    compaction, no materialised list.  Each returns the retiree count. *)

(** Retire every valid {e load} with [e_seq < seq] — the store-arrival
    frontier sweep. *)
val retire_loads_below : t -> seq:int -> on_port:(int -> unit) -> int

(** Retire all valid entries of exactly [seq] (commit of an instance). *)
val retire_eq : t -> seq:int -> on_port:(int -> unit) -> int

(** Retire all valid entries with [e_seq >= seq] (pipeline squash). *)
val retire_ge : t -> seq:int -> on_port:(int -> unit) -> int

(** {1 Fault-injection hooks} — see {!Pv_dataflow.Fault}. *)

(** Model an SEU in the value field of the [slot]-th live entry (its value
    gets [mask] xor-ed in).  Returns the {e original} entry, [None] when no
    such live entry exists. *)
val corrupt : t -> slot:int -> mask:int -> entry option

(** Model an SEU in the valid bit of the [slot]-th live entry: the record
    vanishes as if never made.  Returns the lost entry so the caller can
    repair its own bookkeeping (or deliberately not, for a silent fault). *)
val drop : t -> slot:int -> entry option
