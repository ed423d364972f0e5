(** Dependence analysis: finding ambiguous pairs (Def. 1) and building the
    port map.

    This plays the role of the polyhedral analysis the paper borrows from
    Polly: every static memory access becomes a numbered port; arrays that
    are stored to anywhere in the kernel cannot be proven conflict-free at
    compile time, so all their accesses are {e ambiguous} and get a
    disambiguation instance.  Load-only arrays use direct memory ports, as
    Dynamatic does for provably independent accesses.  Index expressions
    are additionally classified affine vs indirect (Fig. 2a vs 2b). *)

(** The kernel body with leaf statements annotated by group id. *)
type node =
  | Leaf of int * Pv_kernels.Ast.stmt  (** leaf id = group id *)
  | Loop of {
      var : string;
      lo : Pv_kernels.Ast.expr;
      hi : Pv_kernels.Ast.expr;
      body : node list;
    }

(** One static memory operation, in program order within its leaf. *)
type op = {
  op_kind : Pv_memory.Portmap.op_kind;
  op_array : string;
  op_index : Pv_kernels.Ast.expr;
  op_conditional : bool;
}

(** {2 The port-numbered leaf IR}

    Every leaf statement is lowered once, here, and every later pass (the
    circuit builder, the prescience walk) reads its memory order from the
    lowered form instead of re-deriving it from the AST.  Ports are global
    ids, numbered in leaf order and then in program order within a leaf:
    loads in post-order (operands before their operator, inner index loads
    before the enclosing access), a store after its index and value loads,
    a condition before its branches.

    With load CSE, a load whose array and index were already loaded in the
    same conditional scope (unconditional / then / else), or
    unconditionally, is lowered to a [Reuse] of that port's value.  The two
    branches never share a load: the untaken side would starve. *)

type lexpr =
  | Int of int
  | Var of string  (** a kernel parameter or a loop variable *)
  | Un of Pv_dataflow.Types.unop * lexpr
  | Bin of Pv_dataflow.Types.binop * lexpr * lexpr
  | Load of { port : int; array : string; index : lexpr }
  | Reuse of { port : int; guarded : bool }
      (** the value an earlier [Load port] of this leaf returned; [guarded]
          when an unconditional load is reused inside a branch, which must
          pass the value through the branch's guard *)

type lstore = { port : int; array : string; index : lexpr; value : lexpr }

(** A lowered leaf: one store, or a condition and the stores of each
    branch (conditional bodies hold only stores). *)
type lowered = Plain of lstore | Cond of lexpr * lstore list * lstore list

type leaf_info = {
  leaf_id : int;
  loop_vars : string list;  (** outermost first *)
  lowered : lowered;
  ops : op list;
      (** the [Load] and store ports of [lowered], in port order *)
}

type pair_class = Affine | Indirect

type info = {
  nodes : node list;
  leaves : leaf_info list;
  portmap : Pv_memory.Portmap.t;
  ambiguous_arrays : (string * pair_class) list;
      (** one disambiguation instance per entry, in instance-id order *)
  max_loop_depth : int;
}

(** Affine form [sum coeff_i * var_i + const] over the loop variables. *)
type affine = { coeffs : (string * int) list; const : int }

(** Affine view of an index expression with kernel parameters substituted;
    [None] when non-affine (array-indirect or non-linear). *)
val affine_of :
  params:(string * int) list -> Pv_kernels.Ast.expr -> affine option

(** Full analysis of a kernel, lowering every leaf.  [cse] (default off)
    turns repeated loads into [Reuse]s; the builder and the prescience walk
    follow the lowered leaves, so they need no setting of their own. *)
val analyse : ?cse:bool -> Pv_kernels.Ast.kernel -> info

(** Ambiguous pairs before dimension reduction: every (load, store)
    combination on the same ambiguous array (Def. 1). *)
val naive_pair_count : info -> int
