(** Reference interpreter — the golden model.

    Plays the role of the paper's C++ execution against which the ModelSim
    RTL output is checked: every simulated circuit's final memory must
    equal the interpreter's on the same inputs.

    Every entry point stages its input once (names resolve to frame slots
    and arrays) and then runs the staged form.  Errors still raise where
    the walk reaches them, not at staging: an unbound name or an
    out-of-bounds index in an untaken branch or a zero-trip loop raises
    nothing, and a [Bin]'s right operand is evaluated before its left. *)

(** The array store: array name to contents. *)
type state = (string, int array) Hashtbl.t

exception Unbound_variable of string
exception Unbound_array of string
exception Out_of_bounds of { array : string; index : int; length : int }

(** Evaluate an expression under a scalar environment (innermost binding
    first) and array store.
    @raise Unbound_variable, Unbound_array, Out_of_bounds accordingly. *)
val eval : state -> (string * int) list -> Ast.expr -> int

(** Execute one statement (mutates the store). *)
val exec : state -> (string * int) list -> Ast.stmt -> unit

(** Execute [k] on fresh arrays initialised from [init] (missing arrays are
    zero-filled); returns the array store.
    @raise Invalid_argument when an init array has the wrong length. *)
val run : Ast.kernel -> init:(string * int array) list -> state

(** Count of dynamic leaf-statement instances — the number of body
    instances the circuit's generator will emit (a lower bound on cycles).
    Runs the kernel as {!run} does.
    @raise Invalid_argument when an init array has the wrong length. *)
val count_instances : Ast.kernel -> init:(string * int array) list -> int

(** {2 Staging} *)

(** The scalars in scope: an environment's values in its order, then one
    slot per loop depth. *)
type frame = int array

(** [bind env ~loops] is the scope of [env] (each name to its slot,
    innermost binding first) and a frame holding [env]'s values followed
    by [loops] free slots. *)
val bind : (string * int) list -> loops:int -> (string * int) list * frame

(** [stage_expr ~idx scope e] compiles [e] to a closure over a frame.
    [scope] maps each name to its slot, innermost binding first; a name
    it lacks stages to a closure raising [Unbound_variable].  Each
    [Idx (a, ix)] node [e'] stages to [idx a e' ix'], where [ix'] is the
    staged index. *)
val stage_expr :
  idx:(string -> Ast.expr -> (frame -> int) -> frame -> int) ->
  (string * int) list ->
  Ast.expr ->
  frame ->
  int

(** Run staged statements in order (over a frame, or over any state a
    staged walk carries). *)
val stage_seq : ('a -> unit) list -> 'a -> unit
