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
    the hot loop dispatches with one jump table and no boxed state.
    [eval_*_code (…_code op) = eval_* op] by construction (checked by
    test/test_dataflow.ml). *)

val binop_code : binop -> int
val eval_binop_code : int -> int -> int -> int
val unop_code : unop -> int
val eval_unop_code : int -> int -> int

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
    (one per induction variable) for each body instance.  It is the single
    rewindable point of the circuit: on a squash at [seq_err] the simulator
    resets it to re-emit instances from [seq_err]. *)
type gen_spec = {
  gen_arity : int;  (** number of induction-variable outputs *)
  gen_next : int -> int array;
      (** [gen_next seq] = values of the induction variables for body
          instance [seq], or [||] once the nest is exhausted.  Returning a
          pre-tabulated row (rather than an option around it) keeps the
          generator's steady-state emission allocation-free; [gen_arity]
          is at least 1, so the empty array is unambiguous. *)
  gen_group : int -> int;  (** memory-port group of body instance [seq] *)
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
