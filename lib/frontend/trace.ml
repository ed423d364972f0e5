open Pv_kernels

exception Data_dependent_bound of Ast.expr

(* A bound reads scalars only: an array read stages to a closure raising
   [Data_dependent_bound] when the walk reaches it. *)
let stage_bound scope e =
  Interp.stage_expr ~idx:(fun _ e _ _ -> raise (Data_dependent_bound e)) scope e

type t = Pv_dataflow.Types.gen_spec

(* One walk's state: its own frame, the table it fills (empty while it
   only counts) and the rows reached so far. *)
type cursor = { frame : Interp.frame; table : int array; mutable row : int }

(* The walk is staged once per node, as {!Interp} stages a kernel: loop
   variables live in frame slots after the parameters, and each leaf's
   record and slots resolve before the walk.  A lookup that fails raises
   only when the walk reaches it, as a per-instance lookup would.  The
   staged walk runs once here against an empty table, counting the rows
   (and raising where a bound reads memory); each [gen_fill] runs it again on
   a fresh cursor, into a table of exactly that size. *)
let of_kernel (k : Ast.kernel) (info : Depend.info) : t =
  let arity = 1 + info.Depend.max_loop_depth in
  let rec stage scope next node : cursor -> unit =
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
            fun c ->
              let row = c.row * arity in
              if row < Array.length c.table then begin
                c.table.(row) <- id;
                for i = 0 to Array.length slots - 1 do
                  c.table.(row + i + 1) <- c.frame.(slots.(i))
                done
              end;
              c.row <- c.row + 1)
    | Depend.Loop { var; lo; hi; body } ->
        let lo = stage_bound scope lo and hi = stage_bound scope hi in
        let body =
          Interp.stage_seq
            (List.map (stage ((var, next) :: scope) (next + 1)) body)
        in
        fun c ->
          let f = c.frame in
          let lo = lo f and hi = hi f in
          for iv = lo to hi - 1 do
            f.(next) <- iv;
            body c
          done
  in
  let loops = info.Depend.max_loop_depth in
  let scope, frame = Interp.bind k.Ast.params ~loops in
  let walk =
    Interp.stage_seq (List.map (stage scope (List.length scope)) info.Depend.nodes)
  in
  let count = { frame; table = [||]; row = 0 } in
  walk count;
  let rows = count.row in
  let fill () =
    let frame = snd (Interp.bind k.Ast.params ~loops) in
    let c = { frame; table = Array.make (rows * arity) 0; row = 0 } in
    walk c;
    c.table
  in
  { Pv_dataflow.Types.gen_arity = arity; gen_rows = rows; gen_fill = fill }

let length (t : t) = t.gen_rows
