(** Core identifiers, operator vocabulary and token representation for
    elastic (latency-insensitive) dataflow circuits.

    The component vocabulary follows Dynamatic's: functional units, forks,
    joins, merges, muxes, branches and elastic buffers, plus memory ports
    that talk to a pluggable disambiguation backend ({!Memif}). *)

type node_id = int
type chan_id = int

(** Binary functional units.  Comparison operators produce 0/1. *)
type binop =
  | Add
  | Sub
  | Mul
  | Mulc  (** multiply by a compile-time constant: strength-reduced *)
  | Div
  | Rem
  | And
  | Or
  | Xor
  | Shl
  | Shr
  | Lt
  | Le
  | Gt
  | Ge
  | Eq
  | Ne
  | Min
  | Max

(** Unary functional units. *)
type unop = Neg | Not | Lnot

val string_of_unop : unop -> string

(** Semantics of the functional units.  Division and remainder by zero
    saturate to 0, matching a hardware divider's defined output rather
    than trapping. *)
val eval_binop : binop -> int -> int -> int

val eval_unop : unop -> int -> int

(** {2 Dense operator codes}

    The simulator's dispatch tables store operators as immediate ints so
    the hot loop dispatches with one jump table and no boxed state.  The
    simulator evaluates a code itself ({!Sim.eval_binop_code},
    {!Sim.eval_unop_code}), where its dispatch arms can inline the
    evaluation. *)

val binop_code : binop -> int

(** Every binop, indexed by its code: [binop_code binops.(i) = i].  The
    area model's component table enumerates the units in this order. *)
val binops : binop array

val unop_code : unop -> int

(** A token flowing on an elastic channel, packed into unboxed words.

    [seq] is the body-instance sequence number assigned by the loop-nest
    generator; all tokens derived from the same body instance share it.
    [epoch] is bumped on every pipeline squash; the simulator purges stale
    tokens whose [seq] is at or beyond the squash point.

    The datapath value keeps full native-int width, so a token travels as
    TWO immediate ints: a packed [(seq, epoch)] key and the raw value.
    Key order is lexicographic [(seq, epoch)] order, so joins take a plain
    [max] and squash cutoffs are one comparison against {!Token.first}. *)
module Token : sig
  type t = int

  val epoch_bits : int  (** 20: epochs live in the low 20 bits *)

  val max_epoch : int  (** 2^20 - 1 *)

  val max_seq : int  (** 2^42 - 1: seqs live in bits 62..20 *)

  val none : t  (** the absent token (negative; [k >= 0] = presence) *)

  (** Overflow-checked packer: raises [Invalid_argument] when [seq] or
      [epoch] falls outside its field. *)
  val make : seq:int -> epoch:int -> t

  (** Hot-path packer: no bounds check, epoch wraps modulo 2^20 (the epoch
      is observational only; control purges by [seq] alone). *)
  val unsafe : seq:int -> epoch:int -> t

  val seq : t -> int
  val epoch : t -> int

  (** Least key of body instance [seq]; for valid keys,
      [k >= first ~seq:s] iff [seq k >= s]. *)
  val first : seq:int -> t

  val with_epoch : t -> epoch:int -> t

  (** Accessors over the two-word [(key, value)] pair form. *)
  val value : t * int -> int

  val with_value : t * int -> int -> t * int
  val pp : Format.formatter -> t * int -> unit
end

(** A materialised token: packed key plus raw value word. *)
type token = Token.t * int

val token : ?epoch:int -> seq:int -> int -> token
val pp_token : Format.formatter -> token -> unit

(** Specification of a loop-nest generator node.  The generator walks the
    kernel's control flow in program order, emitting one token per output
    for each body instance.  It is the single rewindable point of the
    circuit: on a squash at [seq_err] the simulator resets it to re-emit
    instances from [seq_err]. *)
type gen_spec = {
  gen_arity : int;  (** outputs per body instance, at least 1 *)
  gen_rows : int;  (** body instances *)
  gen_fill : unit -> int array;
      (** a fresh schedule of [gen_rows * gen_arity] values: instance
          [seq]'s output [i] at [seq * gen_arity + i], output 0 its
          memory-port group (the leaf id).  {!Sim.create} fills one per
          simulation, so domains may simulate one graph at once, and an
          only elaborated graph fills none. *)
}

(** Node kinds.  Arities are fixed per kind and validated by {!Check}. *)
type kind =
  | Gen of gen_spec  (** 0 in, [gen_arity] out *)
  | Const of int  (** 1 ctrl in, 1 out: emits the constant per ctrl token *)
  | Unop of unop  (** 1 in, 1 out *)
  | Binop of binop  (** 2 in, 1 out *)
  | Fork of int  (** 1 in, n out: replicates (fires when all outs free) *)
  | Join of int  (** n in, 1 out: synchronises, forwards input 0 *)
  | Merge of int  (** n in, 1 out: first-come (lowest index priority) *)
  | Mux of int  (** 1 sel + n data in, 1 out *)
  | Branch  (** data + cond in; out0 = taken (cond<>0), out1 = not taken *)
  | Buffer of { transparent : bool; slots : int }
      (** 1 in, 1 out.  A transparent buffer may pass a token the cycle it
          arrives (pure slack); an opaque one holds it for a cycle (a
          timing-breaking register). *)
  | Sink  (** 1 in, 0 out: absorbs *)
  | Load of { port : int }  (** addr in, data out; served by the backend *)
  | Store of { port : int }  (** addr + data in, 0 out *)
  | Skip of { port : int }
      (** 1 ctrl in, 0 out: tells the backend the memory op of [port] does
          not occur for this body instance (PreVV "fake token", Sec. V-C) *)
  | Galloc of { group : int }
      (** 1 ctrl in, 0 out: allocates LSQ entries for a conditional group
          at the moment the branch outcome is known *)

(** [(inputs, outputs)] arity of a kind. *)
val kind_arity : kind -> int * int

val kind_name : kind -> string

(** A kind's component class, in [\[0, n_classes)], keeps only what
    changes its hardware (ports, constants, groups, buffer transparency
    and generator specs are dropped); [-1] for a fork, join, merge, mux
    or buffer whose arity or slot count exceeds [sized_bound] (44). *)
val class_of : kind -> int

val n_classes : int
val sized_bound : int
