(** Growable circular buffer of fixed-stride integer records: the
    allocation-free replacement for the simulator's [Queue.t]s (FU
    pipelines, elastic buffers, announced stores, load responses).

    Records are [stride] consecutive ints.  Capacity is a power of two and
    doubles on demand, so after warm-up no operation allocates.  Records
    are addressed by live index: 0 is the oldest (head), [length t - 1]
    the newest.

    The record is exposed so the simulator's per-cycle eval arms can read
    the occupancy and the head record, append a record and drop the head
    as plain loads and stores: under the dev profile ocamlopt compiles
    with [-opaque], which turns every call into this module into an
    out-of-line call.  Those arms ([Sim]'s [rpush3] and [rpop]) write
    [head], [len] and the record fields inline with the index arithmetic
    of {!push3} and {!pop}, and leave a full ring to {!push3}, so growth
    stays here.  Everything else writes through the functions below. *)

type t = {
  stride : int;
  mutable buf : int array;  (** length = capacity * stride *)
  mutable mask : int;  (** capacity - 1; capacity is a power of two *)
  mutable head : int;
      (** record index of the oldest record, always in [0, capacity), so
          the oldest record's fields start at [head * stride] *)
  mutable len : int;  (** live records *)
}

(** [create ~stride cap] — an empty ring of [stride]-int records with room
    for at least [cap] of them (rounded up to a power of two, min 2). *)
val create : stride:int -> int -> t

val length : t -> int
val is_empty : t -> bool

(** [get t i field] — field [field] of live record [i] (0 = oldest). *)
val get : t -> int -> int -> int

val set : t -> int -> int -> int -> unit

(** Append one record; [pushN] writes the first N fields (use matching
    [stride]). Grows (doubling) when full. *)
val push1 : t -> int -> unit

val push2 : t -> int -> int -> unit
val push3 : t -> int -> int -> int -> unit
val push4 : t -> int -> int -> int -> int -> unit

(** Drop the oldest record.  @raise Invalid_argument when empty. *)
val pop : t -> unit

val clear : t -> unit

(** [reject_ge t ~field ~cutoff] drops every record whose [field] is
    [>= cutoff], preserving survivor order, allocating nothing; returns
    the number dropped.  The squash-path primitive. *)
val reject_ge : t -> field:int -> cutoff:int -> int

(** Dual of {!reject_ge}: drops every record whose [field] is [< cutoff].
    Used by the timer wheel to retire fired expiries. *)
val reject_lt : t -> field:int -> cutoff:int -> int

(** [iter f t] calls [f i] for each live record index, oldest first (for
    use with {!get}).  Intended for cold paths (post-mortems). *)
val iter : (int -> unit) -> t -> unit
