(** Reference interpreter — the golden model.

    Plays the role of the paper's C++ execution against which the ModelSim
    RTL output is checked: every simulated circuit's final memory must
    equal the interpreter's.

    A kernel is staged once before it runs: each variable resolves to a
    slot of an [int array] frame (the environment first, then one slot per
    loop depth) and each array to its [int array], so the walk does no name
    lookup and allocates nothing per instance.  A name that does not
    resolve stages to a closure that raises when the walk reaches it, so
    errors surface exactly where a tree walker would raise them. *)

type state = (string, int array) Hashtbl.t

exception Unbound_variable of string
exception Unbound_array of string
exception Out_of_bounds of { array : string; index : int; length : int }

type frame = int array

(* A scope maps names to frame slots, innermost binding first, so
   [List.assoc_opt] finds the binding an environment lookup would.  An
   environment's own bindings take the first slots, in order. *)
let bind env ~loops =
  let frame = Array.make (List.length env + loops) 0 in
  List.iteri (fun i (_, v) -> frame.(i) <- v) env;
  (List.mapi (fun i (name, _) -> (name, i)) env, frame)

(* The right operand runs first, so of two faulting operands the right
   one raises (the order [eval_binop b (eval x) (eval y)] evaluates in).
   The common operators get their own closure: [eval_binop] is not
   inlined, and calling it doubles the cost of a run. *)
let stage_binop (b : Ast.binop) x y : frame -> int =
  match b with
  | Pv_dataflow.Types.Add -> fun f -> let r = y f in x f + r
  | Pv_dataflow.Types.Sub -> fun f -> let r = y f in x f - r
  | Pv_dataflow.Types.Mul | Pv_dataflow.Types.Mulc ->
      fun f -> let r = y f in x f * r
  | _ -> fun f -> let r = y f in Pv_dataflow.Types.eval_binop b (x f) r

let stage_expr ~idx scope (e : Ast.expr) : frame -> int =
  let rec go (e : Ast.expr) =
    match e with
    | Int n -> fun _ -> n
    | Var s -> (
        match List.assoc_opt s scope with
        | Some slot -> fun f -> f.(slot)
        | None -> fun _ -> raise (Unbound_variable s))
    | Idx (a, ix) -> idx a e (go ix)
    | Un (u, x) ->
        let x = go x in
        fun f -> Pv_dataflow.Types.eval_unop u (x f)
    | Bin (b, x, y) -> stage_binop b (go x) (go y)
  in
  go e

let[@inline] check a arr i =
  if i < 0 || i >= Array.length arr then
    raise (Out_of_bounds { array = a; index = i; length = Array.length arr })

(* The array resolves before the index is evaluated, so an unbound array
   raises ahead of anything in its index. *)
let stage_load (st : state) a _ ix : frame -> int =
  match Hashtbl.find_opt st a with
  | None -> fun _ -> raise (Unbound_array a)
  | Some arr ->
      fun f ->
        let i = ix f in
        check a arr i;
        Array.unsafe_get arr i

let stage_value st scope e = stage_expr ~idx:(stage_load st) scope e

let stage_seq ss =
  match ss with
  | [] -> fun _ -> ()
  | [ s ] -> s
  | ss ->
      let ss = Array.of_list ss in
      fun f ->
        for i = 0 to Array.length ss - 1 do
          (Array.unsafe_get ss i) f
        done

(* With [count], each leaf reached outside an [If] (a [Store] or an [If],
   the generator's unit) increments it. *)
let tally count leaf =
  match count with
  | None -> leaf
  | Some c ->
      fun f ->
        incr c;
        leaf f

(* [next] is the first free frame slot: a loop binds its variable there. *)
let rec stage_stmt st ~count scope next (s : Ast.stmt) : frame -> unit =
  match s with
  | For { var; lo; hi; body } ->
      let lo = stage_value st scope lo and hi = stage_value st scope hi in
      let body = stage_body st ~count ((var, next) :: scope) (next + 1) body in
      fun f ->
        let lo = lo f and hi = hi f in
        for iv = lo to hi - 1 do
          f.(next) <- iv;
          body f
        done
  | Store (a, ix, value) -> (
      let ix = stage_value st scope ix
      and value = stage_value st scope value in
      tally count
      @@
      match Hashtbl.find_opt st a with
      | None -> fun _ -> raise (Unbound_array a)
      | Some arr ->
          fun f ->
            let i = ix f in
            check a arr i;
            Array.unsafe_set arr i (value f))
  | If (c, t, e) ->
      let c = stage_value st scope c
      and t = stage_body st ~count:None scope next t
      and e = stage_body st ~count:None scope next e in
      tally count (fun f -> if c f <> 0 then t f else e f)

and stage_body st ~count scope next body =
  stage_seq (List.map (stage_stmt st ~count scope next) body)

(* Loop nesting depth: the frame slots a statement needs beyond its
   environment. *)
let rec nesting (s : Ast.stmt) =
  match s with
  | Store _ -> 0
  | For { body; _ } -> 1 + nesting_list body
  | If (_, t, e) -> max (nesting_list t) (nesting_list e)

and nesting_list ss = List.fold_left (fun m s -> max m (nesting s)) 0 ss

(* Stage [body] under the environment [env] and return it with a frame
   holding [env]'s values. *)
let stage st ~count env body =
  let scope, frame = bind env ~loops:(nesting_list body) in
  (stage_body st ~count scope (List.length env) body, frame)

let eval st env e =
  let scope, frame = bind env ~loops:0 in
  stage_value st scope e frame

let exec st env s =
  let go, frame = stage st ~count:None env [ s ] in
  go frame

(* Fresh arrays from [init] (missing arrays are zero-filled). *)
let arrays_of (k : Ast.kernel) ~init : state =
  let st = Hashtbl.create 8 in
  List.iter
    (fun (name, len) ->
      let arr =
        match List.assoc_opt name init with
        | Some src ->
            if Array.length src <> len then
              invalid_arg
                (Printf.sprintf
                   "Interp: init for %s has length %d, expected %d" name
                   (Array.length src) len);
            Array.copy src
        | None -> Array.make len 0
      in
      Hashtbl.replace st name arr)
    k.arrays;
  st

let run_staged ?count (k : Ast.kernel) ~init =
  let st = arrays_of k ~init in
  let go, frame = stage st ~count k.params k.body in
  go frame;
  st

let run k ~init = run_staged k ~init

let count_instances k ~init =
  let count = ref 0 in
  ignore (run_staged ~count k ~init);
  !count
