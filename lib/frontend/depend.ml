(** Dependence analysis: finding ambiguous pairs (Def. 1) and building the
    port map.

    This plays the role of the polyhedral analysis the paper borrows from
    Polly: every static memory access becomes a numbered port; arrays that
    are stored to anywhere in the kernel cannot be proven conflict-free at
    compile time (their index expressions are either reused across
    iterations or data-dependent), so all their accesses are {e ambiguous}
    and get a disambiguation instance.  Load-only arrays use direct memory
    ports, as Dynamatic does for provably independent accesses.

    The module also classifies index expressions as affine or indirect
    (Fig. 2a vs 2b shapes) — used for reporting and by the sizing model. *)

open Pv_kernels

(** Leaf statements: the unit the loop-nest generator dispatches on (one
    group per leaf, in the group-allocator sense). *)
type node =
  | Leaf of int * Ast.stmt  (** leaf id = group id *)
  | Loop of { var : string; lo : Ast.expr; hi : Ast.expr; body : node list }

type op = {
  op_kind : Pv_memory.Portmap.op_kind;
  op_array : string;
  op_index : Ast.expr;
  op_conditional : bool;
}

type leaf_info = {
  leaf_id : int;
  loop_vars : string list;  (** outermost first *)
  stmt : Ast.stmt;
  ops : op list;  (** program order; ports are assigned in this order *)
}

type pair_class = Affine | Indirect

type info = {
  nodes : node list;  (** annotated kernel body *)
  leaves : leaf_info list;
  portmap : Pv_memory.Portmap.t;
  ambiguous_arrays : (string * pair_class) list;
      (** one disambiguation instance per entry, in instance-id order *)
  max_loop_depth : int;
  cse : bool;  (** the CSE setting the ports were enumerated under *)
}

(* --- leaf extraction ----------------------------------------------------- *)

(* Annotate the body and collect (id, loop vars, stmt) per leaf. *)
let annotate (body : Ast.stmt list) : node list * (int * string list * Ast.stmt) list
    =
  let next = ref 0 in
  let leaves = ref [] in
  let rec go vars stmt =
    match stmt with
    | Ast.For { var; lo; hi; body } ->
        Loop { var; lo; hi; body = List.map (go (vars @ [ var ])) body }
    | Ast.Store _ | Ast.If _ ->
        let id = !next in
        incr next;
        leaves := (id, vars, stmt) :: !leaves;
        Leaf (id, stmt)
  in
  let nodes = List.map (go []) body in
  (nodes, List.rev !leaves)

(* --- program-order operation enumeration -------------------------------- *)

(* CSE scoping: loads may be shared within one conditional scope of a leaf
   (unconditional / then / else), and a branch may reuse an unconditional
   load — the guard branches always consume, so the shared fork never
   starves.  Sharing between the two branches would starve the untaken
   side and deadlock. *)
type cse_scope = Sc_uncond | Sc_then | Sc_else

type cse_key = cse_scope * string * Ast.expr

(* The resolved CSE key of a load: an earlier unconditional occurrence wins
   over a branch-scoped one.  Registers the key on its first occurrence. *)
let cse_lookup ~(seen : (cse_key, unit) Hashtbl.t) ~scope a ix :
    [ `Fresh of cse_key | `Dup of cse_key ] =
  let in_uncond = Hashtbl.mem seen (Sc_uncond, a, ix) in
  let key =
    if scope <> Sc_uncond && in_uncond then (Sc_uncond, a, ix)
    else (scope, a, ix)
  in
  if Hashtbl.mem seen key then `Dup key
  else begin
    Hashtbl.replace seen key ();
    `Fresh key
  end

(* Loads of an expression in post-order (operands before their operator,
   inner index loads before the enclosing access), matching exactly the
   order in which Build compiles them.  With [cse], duplicated loads are
   dropped (Build reuses the first occurrence's value). *)
let rec expr_ops ~cse ~seen ~scope ~conditional acc (e : Ast.expr) =
  match e with
  | Ast.Int _ | Ast.Var _ -> acc
  | Ast.Un (_, x) -> expr_ops ~cse ~seen ~scope ~conditional acc x
  | Ast.Bin (_, x, y) ->
      expr_ops ~cse ~seen ~scope ~conditional
        (expr_ops ~cse ~seen ~scope ~conditional acc x)
        y
  | Ast.Idx (a, ix) ->
      let acc = expr_ops ~cse ~seen ~scope ~conditional acc ix in
      let fresh =
        (not cse) || match cse_lookup ~seen ~scope a ix with `Fresh _ -> true | `Dup _ -> false
      in
      if fresh then
        {
          op_kind = Pv_memory.Portmap.OLoad;
          op_array = a;
          op_index = ix;
          op_conditional = conditional;
        }
        :: acc
      else acc

let store_ops ~cse ~seen ~scope ~conditional acc (a, ix, value) =
  let acc = expr_ops ~cse ~seen ~scope ~conditional acc ix in
  let acc = expr_ops ~cse ~seen ~scope ~conditional acc value in
  {
    op_kind = Pv_memory.Portmap.OStore;
    op_array = a;
    op_index = ix;
    op_conditional = conditional;
  }
  :: acc

(* Memory operations of a leaf statement in program order: index loads in
   post-order, then value loads, then the store; conditionals contribute
   their condition's loads first, then each branch.  With [cse],
   syntactically duplicated loads within a conditional scope collapse to
   their first occurrence (see Optimize).  Raises [Invalid_argument] when a
   conditional body contains non-stores. *)
let leaf_ops ?(cse = false) (stmt : Ast.stmt) : op list =
  let seen = Hashtbl.create 8 in
  let branch_ops ~scope acc stmts =
    List.fold_left
      (fun acc s ->
        match s with
        | Ast.Store (a, ix, value) ->
            store_ops ~cse ~seen ~scope ~conditional:true acc (a, ix, value)
        | Ast.If _ | Ast.For _ ->
            invalid_arg "leaf_ops: conditional bodies may contain only stores")
      acc stmts
  in
  match stmt with
  | Ast.Store (a, ix, value) ->
      List.rev
        (store_ops ~cse ~seen ~scope:Sc_uncond ~conditional:false []
           (a, ix, value))
  | Ast.If (c, t, e) ->
      let acc = expr_ops ~cse ~seen ~scope:Sc_uncond ~conditional:false [] c in
      let acc = branch_ops ~scope:Sc_then acc t in
      let acc = branch_ops ~scope:Sc_else acc e in
      List.rev acc
  | Ast.For _ -> invalid_arg "leaf_ops: not a leaf"

(* --- affine classification ----------------------------------------------- *)

type affine = { coeffs : (string * int) list; const : int }

let affine_add a b =
  let keys =
    List.sort_uniq compare (List.map fst a.coeffs @ List.map fst b.coeffs)
  in
  {
    coeffs =
      List.filter_map
        (fun k ->
          let c =
            (match List.assoc_opt k a.coeffs with Some c -> c | None -> 0)
            + match List.assoc_opt k b.coeffs with Some c -> c | None -> 0
          in
          if c = 0 then None else Some (k, c))
        keys;
    const = a.const + b.const;
  }

let affine_scale s a =
  { coeffs = List.filter_map (fun (k, c) -> if s * c = 0 then None else Some (k, s * c)) a.coeffs;
    const = s * a.const }

(** Affine form of an index expression over the loop variables, with kernel
    parameters substituted; [None] when the expression is non-affine (e.g.
    contains an array access — the Fig. 2(b) shape). *)
let rec affine_of ~params (e : Ast.expr) : affine option =
  match e with
  | Ast.Int n -> Some { coeffs = []; const = n }
  | Ast.Var v -> (
      match List.assoc_opt v params with
      | Some n -> Some { coeffs = []; const = n }
      | None -> Some { coeffs = [ (v, 1) ]; const = 0 })
  | Ast.Un (Pv_dataflow.Types.Neg, x) ->
      Option.map (affine_scale (-1)) (affine_of ~params x)
  | Ast.Un (_, _) -> None
  | Ast.Idx (_, _) -> None
  | Ast.Bin (Pv_dataflow.Types.Add, x, y) -> (
      match (affine_of ~params x, affine_of ~params y) with
      | Some a, Some b -> Some (affine_add a b)
      | _ -> None)
  | Ast.Bin (Pv_dataflow.Types.Sub, x, y) -> (
      match (affine_of ~params x, affine_of ~params y) with
      | Some a, Some b -> Some (affine_add a (affine_scale (-1) b))
      | _ -> None)
  | Ast.Bin (Pv_dataflow.Types.Mul, x, y) -> (
      match (affine_of ~params x, affine_of ~params y) with
      | Some { coeffs = []; const = s }, Some b -> Some (affine_scale s b)
      | Some a, Some { coeffs = []; const = s } -> Some (affine_scale s a)
      | _ -> None)
  | Ast.Bin (_, _, _) -> None

(* --- analysis ------------------------------------------------------------ *)

let analyse ?(cse = false) (k : Ast.kernel) : info =
  let nodes, raw_leaves = annotate k.Ast.body in
  let leaves =
    List.map
      (fun (leaf_id, loop_vars, stmt) ->
        { leaf_id; loop_vars; stmt; ops = leaf_ops ~cse stmt })
      raw_leaves
  in
  let all_ops = List.concat_map (fun l -> l.ops) leaves in
  let stored =
    List.sort_uniq compare
      (List.filter_map
         (fun o ->
           if o.op_kind = Pv_memory.Portmap.OStore then Some o.op_array else None)
         all_ops)
  in
  (* one disambiguation instance per stored array, in declaration order *)
  let ambiguous =
    List.filter_map
      (fun (a, _) -> if List.mem a stored then Some a else None)
      k.Ast.arrays
  in
  let classify a =
    let indirect =
      List.exists
        (fun o ->
          o.op_array = a && affine_of ~params:k.Ast.params o.op_index = None)
        all_ops
    in
    if indirect then Indirect else Affine
  in
  let instance_of a =
    let rec find i = function
      | [] -> None
      | x :: _ when String.equal x a -> Some i
      | _ :: rest -> find (i + 1) rest
    in
    find 0 ambiguous
  in
  (* assign ports: leaf order, then op order *)
  let ports = ref [] in
  let next_port = ref 0 in
  let n_groups = List.length leaves in
  let n_instances = List.length ambiguous in
  let rom = Array.init n_instances (fun _ -> Array.make n_groups [||]) in
  List.iter
    (fun leaf ->
      List.iter
        (fun o ->
          let id = !next_port in
          incr next_port;
          let instance = instance_of o.op_array in
          ports :=
            {
              Pv_memory.Portmap.id;
              kind = o.op_kind;
              array = o.op_array;
              instance;
              conditional = o.op_conditional;
            }
            :: !ports;
          match instance with
          | Some inst ->
              rom.(inst).(leaf.leaf_id) <-
                Array.append rom.(inst).(leaf.leaf_id) [| id |]
          | None -> ())
        leaf.ops)
    leaves;
  let portmap =
    {
      Pv_memory.Portmap.ports = Array.of_list (List.rev !ports);
      n_groups;
      n_instances;
      rom;
    }
  in
  let rec depth n =
    match n with
    | Leaf _ -> 0
    | Loop { body; _ } -> 1 + List.fold_left (fun m c -> max m (depth c)) 0 body
  in
  {
    nodes;
    leaves;
    portmap;
    ambiguous_arrays = List.map (fun a -> (a, classify a)) ambiguous;
    max_loop_depth = List.fold_left (fun m n -> max m (depth n)) 0 nodes;
    cse;
  }

(** Count of ambiguous pairs before dimension reduction: every
    (load, store) combination on the same ambiguous array (Def. 1). *)
let naive_pair_count info =
  List.fold_left
    (fun acc (a, _) ->
      let ops =
        List.concat_map
          (fun l -> List.filter (fun o -> o.op_array = a) l.ops)
          info.leaves
      in
      let loads =
        List.length (List.filter (fun o -> o.op_kind = Pv_memory.Portmap.OLoad) ops)
      in
      let stores =
        List.length
          (List.filter (fun o -> o.op_kind = Pv_memory.Portmap.OStore) ops)
      in
      acc + (loads * stores))
    0 info.ambiguous_arrays
