open Pv_kernels

exception Data_dependent_bound of Ast.expr

(* A bound reads scalars only: an array read stages to a closure raising
   [Data_dependent_bound] when the walk reaches it. *)
let stage_bound scope e =
  Interp.stage_expr ~idx:(fun _ e _ _ -> raise (Data_dependent_bound e)) scope e

type t = { table : int array; arity : int }

(* The walk is staged once per node, as {!Interp} stages a kernel: loop
   variables live in frame slots after the parameters, and each leaf's
   record and slots resolve before the walk.  A lookup that fails raises
   only when the walk reaches it, as a per-instance lookup would.  The
   staged walk runs twice: against an empty table it only counts the
   rows (and raises where a bound reads memory), then it fills a table
   of exactly that size in place. *)
let of_kernel (k : Ast.kernel) (info : Depend.info) : t =
  let arity = 1 + info.Depend.max_loop_depth in
  let table = ref [||] and rows = ref 0 in
  let rec stage scope next node : Interp.frame -> unit =
    match node with
    | Depend.Leaf (id, _) -> (
        match
          List.map
            (fun var -> List.assoc var scope)
            (List.nth info.Depend.leaves id).Depend.loop_vars
        with
        | exception e -> fun _ -> raise e
        | slots ->
            let slots = Array.of_list slots in
            fun f ->
              let row = !rows * arity and table = !table in
              if row < Array.length table then begin
                table.(row) <- id;
                for i = 0 to Array.length slots - 1 do
                  table.(row + i + 1) <- f.(slots.(i))
                done
              end;
              incr rows)
    | Depend.Loop { var; lo; hi; body } ->
        let lo = stage_bound scope lo and hi = stage_bound scope hi in
        let body =
          Interp.stage_seq
            (List.map (stage ((var, next) :: scope) (next + 1)) body)
        in
        fun f ->
          let lo = lo f and hi = hi f in
          for iv = lo to hi - 1 do
            f.(next) <- iv;
            body f
          done
  in
  let scope, frame =
    Interp.bind k.Ast.params ~loops:info.Depend.max_loop_depth
  in
  let n = List.length k.Ast.params in
  let walk = Interp.stage_seq (List.map (stage scope n) info.Depend.nodes) in
  walk frame;
  table := Array.make (!rows * arity) 0;
  rows := 0;
  walk frame;
  { table = !table; arity }

let length t = Array.length t.table / t.arity

(** The generator specification driving the circuit. *)
let gen_spec (t : t) : Pv_dataflow.Types.gen_spec =
  { Pv_dataflow.Types.gen_arity = t.arity; gen_table = t.table }
