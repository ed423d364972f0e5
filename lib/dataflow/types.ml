(** Core identifiers, operator vocabulary and token representation for
    elastic (latency-insensitive) dataflow circuits.

    The vocabulary follows the Dynamatic component set: functional units,
    forks/joins, merges/muxes, branches and elastic buffers, plus memory
    ports that talk to a pluggable disambiguation backend ({!Memif}). *)

type node_id = int
type chan_id = int

(** Binary functional units. Comparison operators produce 0/1. *)
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

type unop = Neg | Not | Lnot

let string_of_binop = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Mulc -> "mulc"
  | Div -> "div"
  | Rem -> "rem"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Shl -> "shl"
  | Shr -> "shr"
  | Lt -> "lt"
  | Le -> "le"
  | Gt -> "gt"
  | Ge -> "ge"
  | Eq -> "eq"
  | Ne -> "ne"
  | Min -> "min"
  | Max -> "max"

let string_of_unop = function Neg -> "neg" | Not -> "not" | Lnot -> "lnot"

let eval_binop op a b =
  match op with
  | Add -> a + b
  | Sub -> a - b
  | Mul | Mulc -> a * b
  | Div -> if b = 0 then 0 else a / b
  | Rem -> if b = 0 then 0 else a mod b
  | And -> a land b
  | Or -> a lor b
  | Xor -> a lxor b
  | Shl -> a lsl (b land 62)
  | Shr -> a asr (b land 62)
  | Lt -> if a < b then 1 else 0
  | Le -> if a <= b then 1 else 0
  | Gt -> if a > b then 1 else 0
  | Ge -> if a >= b then 1 else 0
  | Eq -> if a = b then 1 else 0
  | Ne -> if a <> b then 1 else 0
  | Min -> min a b
  | Max -> max a b

let eval_unop op a =
  match op with Neg -> -a | Not -> (if a = 0 then 1 else 0) | Lnot -> lnot a

(* Dense integer codes for the functional units.  The simulator's dispatch
   tables store these instead of the variant constructors, so the hot loop
   evaluates an operator ([Sim.eval_binop_code]) with one jump-table
   dispatch on an immediate int and never touches a boxed closure or
   constructor. *)

let binop_code = function
  | Add -> 0
  | Sub -> 1
  | Mul -> 2
  | Mulc -> 3
  | Div -> 4
  | Rem -> 5
  | And -> 6
  | Or -> 7
  | Xor -> 8
  | Shl -> 9
  | Shr -> 10
  | Lt -> 11
  | Le -> 12
  | Gt -> 13
  | Ge -> 14
  | Eq -> 15
  | Ne -> 16
  | Min -> 17
  | Max -> 18

let binops =
  [| Add; Sub; Mul; Mulc; Div; Rem; And; Or; Xor; Shl; Shr; Lt; Le; Gt; Ge;
     Eq; Ne; Min; Max |]

let unop_code = function Neg -> 0 | Not -> 1 | Lnot -> 2

(** A token flowing on an elastic channel, packed into unboxed words.

    [seq] is the basic-block-instance sequence number assigned by the
    loop-nest generator; all tokens derived from the same body instance share
    it. [epoch] is bumped on every pipeline squash; stale tokens whose
    [seq] is at or beyond the squash point are purged by the simulator.

    The datapath value must keep full native-int width (shifts and the fuzz
    kernels produce arbitrary 63-bit patterns), so a token travels as TWO
    immediate ints: a packed [key] carrying [(seq, epoch)] and the raw
    [value].  The key layout puts [seq] in the high bits so that the orders
    agree: [k1 < k2] iff [(seq k1, epoch k1) < (seq k2, epoch k2)]
    lexicographically, and [k >= first ~seq:s] iff [seq k >= s] — purge
    cutoffs and join maxima are single int comparisons. *)
module Token = struct
  type t = int

  let epoch_bits = 20
  let max_epoch = (1 lsl epoch_bits) - 1
  let max_seq = (1 lsl (62 - epoch_bits)) - 1

  (** The absent token: negative, so [k >= 0] is the presence test. *)
  let none = -1

  let make ~seq ~epoch =
    if seq < 0 || seq > max_seq then
      invalid_arg (Printf.sprintf "Token.make: seq %d out of [0, %d]" seq max_seq);
    if epoch < 0 || epoch > max_epoch then
      invalid_arg
        (Printf.sprintf "Token.make: epoch %d out of [0, %d]" epoch max_epoch);
    (seq lsl epoch_bits) lor epoch

  (** Hot-path packer: no bounds check; the epoch wraps modulo 2^20 (it is
      observational only — VCD, traces, post-mortems — never consulted by
      control decisions, which purge by [seq] alone). *)
  let unsafe ~seq ~epoch = (seq lsl epoch_bits) lor (epoch land max_epoch)

  let seq k = k asr epoch_bits
  let epoch k = k land max_epoch

  (** Least key of body instance [seq]: the squash cutoff.  For any valid
      key [k], [k >= first ~seq:s] iff [seq k >= s]. *)
  let first ~seq = seq lsl epoch_bits

  let with_epoch k ~epoch = (k land lnot max_epoch) lor (epoch land max_epoch)

  (** The two-word token [(key, value)].  [value]/[with_value] complete the
      accessor set over the pair form; the value word is untouched by
      packing. *)
  let value (_, v) = v
  let with_value (k, _) v = (k, v)

  let pp ppf (k, v) =
    Format.fprintf ppf "{seq=%d;ep=%d;v=%d}" (seq k) (epoch k) v
end

(** A materialised token is its packed [(seq, epoch)] key plus the raw
    value word. *)
type token = Token.t * int

let token ?(epoch = 0) ~seq value = (Token.make ~seq ~epoch, value)
let pp_token = Token.pp

(** Specification of a loop-nest generator node.  The generator walks the
    kernel's control flow in program order, emitting one token per output
    for each body instance.  It is the single rewindable point of the
    circuit: on a squash at [seq_err] the simulator resets it to re-emit
    instances from [seq_err]. *)
type gen_spec = {
  gen_arity : int;  (** outputs per body instance, at least 1 *)
  gen_rows : int;  (** body instances *)
  gen_fill : unit -> int array;  (** a fresh table of [gen_rows] rows *)
}

(** Node kinds. Arities are fixed per kind and validated by {!Check}. *)
type kind =
  | Gen of gen_spec  (** 0 in, [gen_arity] out *)
  | Const of int  (** 1 ctrl in, 1 out: emits constant per ctrl token *)
  | Unop of unop  (** 1 in, 1 out *)
  | Binop of binop  (** 2 in, 1 out *)
  | Fork of int  (** 1 in, n out: replicates (fires when all outs free) *)
  | Join of int  (** n in, 1 out: synchronises, forwards input 0 *)
  | Merge of int  (** n in, 1 out: first-come (lowest index priority) *)
  | Mux of int  (** 1 sel + n data in, 1 out *)
  | Branch  (** data + cond in; out0 = taken (cond<>0), out1 = not taken *)
  | Buffer of { transparent : bool; slots : int }  (** 1 in, 1 out *)
  | Sink  (** 1 in, 0 out: absorbs *)
  | Load of { port : int }  (** addr in, data out; goes through the backend *)
  | Store of { port : int }  (** addr + data in, 0 out *)
  | Skip of { port : int }
      (** 1 ctrl in, 0 out: tells the backend the memory op of [port] does
          not occur for this body instance (PreVV "fake token", Sec. V-C) *)
  | Galloc of { group : int }
      (** 1 ctrl in, 0 out: allocates LSQ entries for a conditional group
          at the moment the branch outcome is known *)

let kind_arity = function
  | Gen g -> (0, g.gen_arity)
  | Const _ -> (1, 1)
  | Unop _ -> (1, 1)
  | Binop _ -> (2, 1)
  | Fork n -> (1, n)
  | Join n -> (n, 1)
  | Merge n -> (n, 1)
  | Mux n -> (1 + n, 1)
  | Branch -> (2, 2)
  | Buffer _ -> (1, 1)
  | Sink -> (1, 0)
  | Load _ -> (1, 1)
  | Store _ -> (2, 0)
  | Skip _ -> (1, 0)
  | Galloc _ -> (1, 0)

let kind_name = function
  | Gen _ -> "gen"
  | Const _ -> "const"
  | Unop u -> string_of_unop u
  | Binop b -> string_of_binop b
  | Fork _ -> "fork"
  | Join _ -> "join"
  | Merge _ -> "merge"
  | Mux _ -> "mux"
  | Branch -> "branch"
  | Buffer { transparent; _ } -> if transparent then "tbuf" else "obuf"
  | Sink -> "sink"
  | Load _ -> "load"
  | Store _ -> "store"
  | Skip _ -> "skip"
  | Galloc _ -> "galloc"

(* Component classes: arities and slot counts run [0, sized_bound]; past
   it a kind has no class ([-1]).  The bound keeps [n_classes] at 255, so
   a census's count array stays under OCaml's 256-word limit for an
   object the minor heap takes. *)
let sized_bound = 44
let span = sized_bound + 1
let sized base n = if n >= 0 && n <= sized_bound then base + n else -1

(* eight payload-only kinds, three unops, the binops, then the sized kinds *)
let first_sized = 11 + Array.length binops
let n_classes = first_sized + (5 * span)

let class_of = function
  | Gen _ -> 0
  | Const _ -> 1
  | Branch -> 2
  | Sink -> 3
  | Load _ -> 4
  | Store _ -> 5
  | Skip _ -> 6
  | Galloc _ -> 7
  | Unop op -> 8 + unop_code op
  | Binop op -> 11 + binop_code op
  | Fork n -> sized first_sized n
  | Join n -> sized (first_sized + span) n
  | Merge n -> sized (first_sized + (2 * span)) n
  | Mux n -> sized (first_sized + (3 * span)) n
  | Buffer { slots; _ } -> sized (first_sized + (4 * span)) slots
