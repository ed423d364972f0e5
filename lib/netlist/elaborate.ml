(** Elaboration of a full circuit (datapath + memory subsystem) into a
    primitive netlist. *)

open Pv_dataflow
module P = Primitive

type disambiguation =
  | D_plain_lsq of int  (** pooled LSQ, classic allocation; depth *)
  | D_fast_lsq of int  (** pooled LSQ with fast token delivery; depth *)
  | D_prevv of int  (** PreVV instance per ambiguous array; queue depth *)
  | D_oracle  (** analytic lower bound: no disambiguation hardware *)
  | D_serial  (** program-order serializer: a small gate per instance *)

(* --- the census fold ------------------------------------------------------ *)

(* each class's component totals, from Gen.component's own parts for one
   kind per class; checked against [Types.class_of], built once at start-up
   and never written after, so worker domains share it *)
let table =
  let spec = { Types.gen_arity = 1; gen_rows = 0; gen_fill = (fun () -> [||]) } in
  let each_size mk = Array.init (Types.sized_bound + 1) mk in
  Array.mapi
    (fun i kind ->
      if Types.class_of kind <> i then invalid_arg "Elaborate: component class table";
      P.add P.zero (Gen.component kind))
    (Array.concat
       [
         [| Types.Gen spec; Types.Const 0; Types.Branch; Types.Sink;
            Types.Load { port = 0 }; Types.Store { port = 0 };
            Types.Skip { port = 0 }; Types.Galloc { group = 0 } |];
         Array.map (fun op -> Types.Unop op) Types.[| Neg; Not; Lnot |];
         Array.map (fun op -> Types.Binop op) Types.binops;
         each_size (fun n -> Types.Fork n);
         each_size (fun n -> Types.Join n);
         each_size (fun n -> Types.Merge n);
         each_size (fun n -> Types.Mux n);
         each_size (fun n -> Types.Buffer { transparent = false; slots = n });
       ])

let level_totals = P.add P.zero Gen.loop_level

type summary = { dp : P.totals; nodes : int; div : bool; mul : bool }

let summarize (g : Graph.t) =
  let c = Graph.census g and t = P.tally () in
  List.iter (fun k -> P.tally_scaled t c.Graph.counts.(k) table.(k)) c.Graph.classes;
  List.iter (fun kind -> P.tally_add t (Gen.component kind)) c.Graph.unclassed;
  P.tally_scaled t c.Graph.levels level_totals;
  let has op = c.Graph.counts.(Types.class_of (Types.Binop op)) > 0 in
  let div = has Types.Div || has Types.Rem in
  { dp = P.tallied t; nodes = Graph.n_nodes g; div; mul = has Types.Mul }

let count_ports (pm : Pv_memory.Portmap.t) ~inst =
  let l = ref 0 and s = ref 0 in
  Array.iter
    (fun p ->
      match (p.Pv_memory.Portmap.instance, p.Pv_memory.Portmap.kind) with
      | Some j, Pv_memory.Portmap.OLoad when j = inst -> incr l
      | Some j, Pv_memory.Portmap.OStore when j = inst -> incr s
      | _ -> ())
    pm.Pv_memory.Portmap.ports;
  (!l, !s)

(* The memory-subsystem macros.  [dp_luts] is the datapath's LUT count;
   PreVV's replay copy charges a share of it. *)
let subsystem (g : Graph.t) (pm : Pv_memory.Portmap.t) dis ~dp_luts =
  let macro ?i name region parts = { P.scope = P.Macro (name, i); region; parts } in
  let n_direct =
    Array.fold_left
      (fun acc p -> if p.Pv_memory.Portmap.instance = None then acc + 1 else acc)
      0 pm.Pv_memory.Portmap.ports
  in
  let mc =
    if n_direct > 0 then
      [ macro "mc" P.Datapath (Gen.mem_controller ~nports:n_direct) ]
    else []
  in
  let total_ports = Array.length pm.Pv_memory.Portmap.ports in
  let ngroups = pm.Pv_memory.Portmap.n_groups in
  let per_instance name parts =
    List.init pm.Pv_memory.Portmap.n_instances (fun i ->
        let nload_ports, nstore_ports = count_ports pm ~inst:i in
        macro ~i name P.Queue (parts ~nload_ports ~nstore_ports))
  in
  let queue =
    match dis with
    | D_plain_lsq depth | D_fast_lsq depth ->
        let fast_alloc = match dis with D_fast_lsq _ -> true | _ -> false in
        (* one pooled LSQ per ambiguous array interface, as synthesised by
           Dynamatic for multi-array kernels *)
        per_instance "lsq" (Gen.lsq ~depth ~ngroups ~fast_alloc)
    | D_prevv depth ->
        macro "squash_net" P.Queue (Gen.squash_net ~components:(Graph.n_nodes g))
        :: per_instance "prevv" (fun ~nload_ports ~nstore_ports ->
               let member_frac =
                 float_of_int (nload_ports + nstore_ports)
                 /. float_of_int (max 1 total_ports)
               in
               let member_datapath_luts =
                 int_of_float (member_frac *. float_of_int dp_luts)
               in
               Gen.prevv ~depth ~nload_ports ~nstore_ports ~ngroups
                 ~member_datapath_luts)
    | D_oracle ->
        (* analytic bound: perfect disambiguation costs no hardware *)
        []
    | D_serial ->
        per_instance "ser" (fun ~nload_ports ~nstore_ports ->
            Gen.serializer ~nports:(nload_ports + nstore_ports) ~ngroups)
  in
  mc @ queue

(* The datapath blocks in node order (a fused loop generator's levels ahead
   of its FSM), built in one walk, then the macros, PreVV's replay copy
   sized from the blocks' totals. *)
let circuit (g : Graph.t) (pm : Pv_memory.Portmap.t) (dis : disambiguation) :
    P.t =
  let block scope parts = { P.scope; region = P.Datapath; parts } in
  let rev = ref [] in
  Graph.iter_nodes
    (fun n ->
      let label = n.Graph.label and nid = n.Graph.nid in
      (match n.Graph.kind with
      | Types.Gen gs ->
          for k = 0 to gs.Types.gen_arity - 1 do
            rev := block (P.Level (label, nid, k)) Gen.loop_level :: !rev
          done
      | _ -> ());
      rev := block (P.Node (label, nid)) (Gen.component n.Graph.kind) :: !rev)
    g;
  List.rev_append !rev (subsystem g pm dis ~dp_luts:(P.totals !rev).P.luts)

(** Split totals into (datapath+controller, disambiguation subsystem) — the
    Fig. 1 breakdown, by the region each block was built with. *)
let breakdown (nl : P.t) =
  let dp = P.tally () and queue = P.tally () in
  List.iter
    (fun b ->
      P.tally_add
        (match b.P.region with P.Datapath -> dp | P.Queue -> queue)
        b.P.parts)
    nl;
  (P.tallied dp, P.tallied queue)
