(** Optional kernel-level optimisations, the kind LLVM would run before
    Dynamatic sees the code.

    - {b Constant folding}: arithmetic over literals and parameters
      collapses at compile time (including the [x*1], [x+0], [x*0]
      identities), shrinking address datapaths.
    - {b Load CSE}: repeated loads of a syntactically identical address
      within one leaf statement collapse to one port.  The [a[x] += e]
      idiom loads [a[x]] once for the index and once for the value; real
      front-ends emit a single load.  Fewer ambiguous ports means fewer
      premature records per iteration — it directly widens PreVV's
      effective queue window.  The mini-language has no scalar lets to
      hold the first-loaded value, so this pass has no AST form: it
      happens when {!Depend} lowers a leaf (a repeated load becomes a
      reuse of the first load's port), and the builder forks the value.

    Both passes preserve the interpreter semantics exactly (tested); they
    are off by default so the paper reproduction measures the unoptimised
    circuits, and exposed through [Pipeline.compile]'s options and the
    CLI. *)

open Pv_kernels

(* --- constant folding ----------------------------------------------------- *)

let rec fold_expr ~params (e : Ast.expr) : Ast.expr =
  match e with
  | Ast.Int _ -> e
  | Ast.Var v -> (
      match List.assoc_opt v params with Some n -> Ast.Int n | None -> e)
  | Ast.Idx (a, ix) -> Ast.Idx (a, fold_expr ~params ix)
  | Ast.Un (op, x) -> (
      match fold_expr ~params x with
      | Ast.Int n -> Ast.Int (Pv_dataflow.Types.eval_unop op n)
      | x' -> Ast.Un (op, x'))
  | Ast.Bin (op, x, y) -> (
      let x' = fold_expr ~params x and y' = fold_expr ~params y in
      match (x', op, y') with
      | Ast.Int a, _, Ast.Int b -> Ast.Int (Pv_dataflow.Types.eval_binop op a b)
      (* additive and multiplicative identities *)
      | e, Pv_dataflow.Types.Add, Ast.Int 0 | Ast.Int 0, Pv_dataflow.Types.Add, e
        ->
          e
      | e, Pv_dataflow.Types.Sub, Ast.Int 0 -> e
      | e, (Pv_dataflow.Types.Mul | Pv_dataflow.Types.Mulc), Ast.Int 1
      | Ast.Int 1, (Pv_dataflow.Types.Mul | Pv_dataflow.Types.Mulc), e ->
          e
      | _, (Pv_dataflow.Types.Mul | Pv_dataflow.Types.Mulc), Ast.Int 0
      | Ast.Int 0, (Pv_dataflow.Types.Mul | Pv_dataflow.Types.Mulc), _ ->
          Ast.Int 0
      | e, Pv_dataflow.Types.Div, Ast.Int 1 -> e
      | _ -> Ast.Bin (op, x', y'))

let rec fold_stmt ~params (s : Ast.stmt) : Ast.stmt =
  match s with
  | Ast.Store (a, ix, v) ->
      Ast.Store (a, fold_expr ~params ix, fold_expr ~params v)
  | Ast.For { var; lo; hi; body } ->
      Ast.For
        {
          var;
          lo = fold_expr ~params lo;
          hi = fold_expr ~params hi;
          body = List.map (fold_stmt ~params) body;
        }
  | Ast.If (c, t, e) ->
      Ast.If
        ( fold_expr ~params c,
          List.map (fold_stmt ~params) t,
          List.map (fold_stmt ~params) e )

(** Fold constants and parameter references throughout the kernel.  The
    parameter list is retained (it is part of the kernel's signature), but
    no reference to it survives in the body. *)
let constant_fold (k : Ast.kernel) : Ast.kernel =
  { k with Ast.body = List.map (fold_stmt ~params:k.Ast.params) k.Ast.body }
