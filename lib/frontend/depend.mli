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

type leaf_info = {
  leaf_id : int;
  loop_vars : string list;  (** outermost first *)
  stmt : Pv_kernels.Ast.stmt;
  ops : op list;  (** program order; ports are assigned in this order *)
}

type pair_class = Affine | Indirect

type info = {
  nodes : node list;
  leaves : leaf_info list;
  portmap : Pv_memory.Portmap.t;
  ambiguous_arrays : (string * pair_class) list;
      (** one disambiguation instance per entry, in instance-id order *)
  max_loop_depth : int;
  cse : bool;
      (** the CSE setting the ports were enumerated under; whoever replays
          the leaves' operations must resolve duplicate loads the same way *)
}

(** CSE scoping inside one leaf: loads may be shared within one
    conditional scope, and a branch may reuse an unconditional load; the
    two branches never share (the untaken side would starve). *)
type cse_scope = Sc_uncond | Sc_then | Sc_else

type cse_key = cse_scope * string * Pv_kernels.Ast.expr

(** Resolve a load occurrence to its CSE key, registering first
    occurrences; the builder and the analysis share this function so their
    port enumerations agree. *)
val cse_lookup :
  seen:(cse_key, unit) Hashtbl.t ->
  scope:cse_scope ->
  string ->
  Pv_kernels.Ast.expr ->
  [ `Fresh of cse_key | `Dup of cse_key ]

(** Affine form [sum coeff_i * var_i + const] over the loop variables. *)
type affine = { coeffs : (string * int) list; const : int }

(** Affine view of an index expression with kernel parameters substituted;
    [None] when non-affine (array-indirect or non-linear). *)
val affine_of :
  params:(string * int) list -> Pv_kernels.Ast.expr -> affine option

(** Full analysis of a kernel.  [cse] must match the builder's setting so
    that port enumeration agrees. *)
val analyse : ?cse:bool -> Pv_kernels.Ast.kernel -> info

(** Ambiguous pairs before dimension reduction: every (load, store)
    combination on the same ambiguous array (Def. 1). *)
val naive_pair_count : info -> int
