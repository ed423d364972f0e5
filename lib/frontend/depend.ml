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

type lexpr =
  | Int of int
  | Var of string
  | Un of Pv_dataflow.Types.unop * lexpr
  | Bin of Pv_dataflow.Types.binop * lexpr * lexpr
  | Load of { port : int; array : string; index : lexpr }
  | Reuse of { port : int; guarded : bool }

type lstore = { port : int; array : string; index : lexpr; value : lexpr }
type lowered = Plain of lstore | Cond of lexpr * lstore list * lstore list

type leaf_info = {
  leaf_id : int;
  loop_vars : string list;  (** outermost first *)
  lowered : lowered;
  ops : op list;  (** the ports of [lowered], in port order *)
}

type pair_class = Affine | Indirect

type info = {
  nodes : node list;  (** annotated kernel body *)
  leaves : leaf_info list;
  portmap : Pv_memory.Portmap.t;
  ambiguous_arrays : (string * pair_class) list;
      (** one disambiguation instance per entry, in instance-id order *)
  max_loop_depth : int;
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

(* --- lowering: the one port enumeration ------------------------------- *)

(* CSE scoping: loads may be shared within one conditional scope of a leaf
   (unconditional / then / else), and a branch may reuse an unconditional
   load -- the guard branches always consume, so the shared fork never
   starves.  Sharing between the two branches would starve the untaken
   side and deadlock. *)
type scope = Uncond | Then | Else

(* Lower one leaf statement, numbering its memory ops from [first_port] in
   program order: loads in post-order (operands before their operator,
   inner index loads before the enclosing access), a store after its index
   and value loads, a condition before its branches.  With [cse], a load
   whose (array, index) was already loaded in the same scope, or
   unconditionally, becomes a [Reuse] of that port. *)
let lower ~cse ~first_port (stmt : Ast.stmt) : lowered * op list =
  let next = ref first_port and ops = ref [] in
  let port op_kind op_array op_index scope =
    let op_conditional = scope <> Uncond in
    ops := { op_kind; op_array; op_index; op_conditional } :: !ops;
    incr next;
    !next - 1
  in
  let seen : (scope * string * Ast.expr, int) Hashtbl.t = Hashtbl.create 8 in
  let rec expr scope (e : Ast.expr) =
    match e with
    | Ast.Int n -> Int n
    | Ast.Var v -> Var v
    | Ast.Un (u, x) -> Un (u, expr scope x)
    | Ast.Bin (b, x, y) ->
        let x = expr scope x in
        let y = expr scope y in
        Bin (b, x, y)
    | Ast.Idx (a, ix) -> (
        let earlier s = if cse then Hashtbl.find_opt seen (s, a, ix) else None in
        match (earlier Uncond, earlier scope) with
        | Some p, _ -> Reuse { port = p; guarded = scope <> Uncond }
        | None, Some p -> Reuse { port = p; guarded = false }
        | None, None ->
            let index = expr scope ix in
            let p = port Pv_memory.Portmap.OLoad a ix scope in
            if cse then Hashtbl.replace seen (scope, a, ix) p;
            Load { port = p; array = a; index })
  in
  let store scope = function
    | Ast.Store (array, ix, v) ->
        let index = expr scope ix in
        let value = expr scope v in
        let port = port Pv_memory.Portmap.OStore array ix scope in
        { port; array; index; value }
    | Ast.If _ | Ast.For _ ->
        invalid_arg "Depend.lower: conditional bodies may contain only stores"
  in
  let lowered =
    match stmt with
    | Ast.Store _ -> Plain (store Uncond stmt)
    | Ast.If (c, t, e) ->
        let c = expr Uncond c in
        let t = List.map (store Then) t in
        let e = List.map (store Else) e in
        Cond (c, t, e)
    | Ast.For _ -> invalid_arg "Depend.lower: not a leaf"
  in
  (lowered, List.rev !ops)

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
  let next_port = ref 0 in
  let leaves =
    List.map
      (fun (leaf_id, loop_vars, stmt) ->
        let lowered, ops = lower ~cse ~first_port:!next_port stmt in
        next_port := !next_port + List.length ops;
        { leaf_id; loop_vars; lowered; ops })
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
  (* the port map, in the order [lower] numbered the ports: leaf order, then
     op order *)
  let n_groups = List.length leaves in
  let n_instances = List.length ambiguous in
  let rom = Array.init n_instances (fun _ -> Array.make n_groups [||]) in
  let ports =
    List.concat_map (fun l -> List.map (fun o -> (l.leaf_id, o)) l.ops) leaves
    |> List.mapi (fun id (group, o) ->
           let instance = instance_of o.op_array in
           Option.iter
             (fun i -> rom.(i).(group) <- Array.append rom.(i).(group) [| id |])
             instance;
           {
             Pv_memory.Portmap.id;
             kind = o.op_kind;
             array = o.op_array;
             instance;
             conditional = o.op_conditional;
           })
  in
  let portmap =
    { Pv_memory.Portmap.ports = Array.of_list ports; n_groups; n_instances; rom }
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
