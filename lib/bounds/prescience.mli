(** Program-order knowledge of a kernel's dynamic memory behaviour — the
    "perfect disambiguator" that the {!Oracle} backend consults.

    {!walk} executes the kernel in program order over a pristine copy of
    its memory: the loop-nest trace gives the body instances in seq order,
    each leaf's [lowered] form in {!Pv_frontend.Depend.leaf_info} (the one
    the circuit was built from, load reuses included) gives its memory
    operations and their ports, and every flat address is the array's
    {!Pv_memory.Layout} base plus the evaluated index.  An address outside
    memory reads 0 and drops the write, as the backends do.  A correct
    disambiguator returns exactly these program-order values, so the
    tables equal what a fault-free cycle-accurate reference run would
    record.

    Every dynamic operation has a {e slot} [seq * n_ports + port]: the
    index into the flat tables and, because port ids are assigned in
    program order, also its program-order key (slots compare like the pair
    [(seq, port)]). *)

type t

(** [walk kernel info trace layout mem] — [mem] is the initial flat
    memory; it is copied, not mutated. *)
val walk :
  Pv_kernels.Ast.kernel ->
  Pv_frontend.Depend.info ->
  Pv_frontend.Trace.t ->
  Pv_memory.Layout.t ->
  int array ->
  t

(** Body instances walked (the trace length). *)
val n_seq : t -> int

val n_ports : t -> int

(** [seq * n_ports + port]. *)
val slot : t -> seq:int -> port:int -> int

(** The operation of this slot executed (it was not skipped by an untaken
    branch, and [slot] is within the tables). *)
val recorded : t -> int -> bool

(** Flat address of a recorded operation. *)
val addr : t -> int -> int

(** Value a recorded load returns, or the payload a recorded store
    writes. *)
val value : t -> int -> int

(** Slot of the youngest store to [addr] strictly older in program order
    than [slot] — the only store that can carry the value a load at that
    point must observe — or [-1] when there is none (or [addr] lies outside
    memory). *)
val youngest_older_store : t -> addr:int -> slot:int -> int
