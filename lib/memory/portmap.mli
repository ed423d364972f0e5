(** Static description of a kernel's memory ports, produced by the
    front-end and consumed by every disambiguation backend.

    Each static load/store site is a numbered port.  Ports on arrays with
    potential inter-iteration dependencies are {e ambiguous} and belong to
    a disambiguation {e instance} (one premature queue + arbiter per
    ambiguous array in PreVV; pooled LSQs in the Dynamatic baselines).  The
    per-group ROM records the original program order of each instance's
    ports inside each group (= leaf statement) — what the group allocator
    of Josipović et al. stores on-chip, and what PreVV's arbiter consults
    when two records carry the same iteration number. *)

type op_kind = OLoad | OStore

type port = {
  id : int;
  kind : op_kind;
  array : string;
  instance : int option;  (** disambiguation instance; [None] = direct *)
  conditional : bool;  (** may be skipped at runtime (needs fake tokens) *)
}

type t = {
  ports : port array;  (** indexed by port id; ids are program order *)
  n_groups : int;  (** leaf statements *)
  n_instances : int;  (** disambiguation instances (ambiguous arrays) *)
  rom : int array array array;
      (** [rom.(inst).(group)] = port ids of instance [inst] occurring in
          group [group], in program order *)
}

val port : t -> int -> port
val is_ambiguous : t -> int -> bool

(** All ambiguous ports of a group across instances, in program order
    (port-id order — ids are assigned in program order). *)
val group_ports : t -> int -> int list

(** [(ids, n)]: [ids.(port)] is a dense id in [0, n) of the port's array,
    numbered in first-port order — the index of the per-array (per-BRAM)
    state every backend keeps in flat int arrays. *)
val array_ids : t -> int array * int

(** ROM position of a port within its instance's group entry — the
    same-iteration tie-break order. *)
val rom_pos : t -> inst:int -> group:int -> port:int -> int option

val pp : Format.formatter -> t -> unit
