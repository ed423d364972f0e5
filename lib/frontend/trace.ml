(** Loop-nest trace: the schedule the generator component walks.

    A dataflow circuit's chain of control merges and branches computes the
    program-order succession of basic-block instances at run time; since
    our kernels' loop bounds are compile-time expressions over parameters
    and outer induction variables (no data-dependent trip counts), that
    succession is a pure function of the instance number and can be
    tabulated.  This table parameterises the rewindable {!Pv_dataflow.Types.Gen}
    node — the single point the PreVV squash rewinds. *)

open Pv_kernels

exception Data_dependent_bound of Ast.expr

(* A bound reads scalars only: an array read stages to a closure raising
   [Data_dependent_bound] when the walk reaches it. *)
let stage_bound scope e =
  Interp.stage_expr ~idx:(fun _ e _ _ -> raise (Data_dependent_bound e)) scope e

type t = {
  rows : int array array;
      (** [rows.(seq)] = [| leaf_id; iv_0; ...; iv_{arity-2} |] where the
          induction variables are those of the leaf's loop nest, outermost
          first, padded with zeros *)
  arity : int;  (** generator output count: 1 (leaf id) + max loop depth *)
}

(* The walk is staged once per node, as {!Interp} stages a kernel: loop
   variables live in frame slots after the parameters, and each leaf's
   record and slots resolve before the walk.  A lookup that fails raises
   only when the walk reaches it, as a per-instance lookup would. *)
let of_kernel (k : Ast.kernel) (info : Depend.info) : t =
  let arity = 1 + info.Depend.max_loop_depth in
  let rows = ref [] in
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
              let row = Array.make arity 0 in
              row.(0) <- id;
              for i = 0 to Array.length slots - 1 do
                row.(i + 1) <- f.(slots.(i))
              done;
              rows := row :: !rows)
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
  Interp.stage_seq (List.map (stage scope n) info.Depend.nodes) frame;
  { rows = Array.of_list (List.rev !rows); arity }

let length t = Array.length t.rows

(** The generator specification driving the circuit. *)
let gen_spec (t : t) : Pv_dataflow.Types.gen_spec =
  {
    Pv_dataflow.Types.gen_arity = t.arity;
    gen_next =
      (fun seq -> if seq < Array.length t.rows then t.rows.(seq) else [||]);
    gen_group =
      (fun seq ->
        if seq < Array.length t.rows then t.rows.(seq).(0)
        else invalid_arg "gen_group: seq out of range");
  }
