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

(* The datapath blocks, in node order (a fused loop generator's levels
   ahead of its FSM), folded through [f]. *)
let fold_datapath ws f acc (g : Graph.t) =
  let level = Gen.loop_level ws in
  let block scope parts = { P.scope; region = P.Datapath; parts } in
  let acc = ref acc in
  Graph.iter_nodes
    (fun n ->
      let label = n.Graph.label and nid = n.Graph.nid in
      (match n.Graph.kind with
      | Types.Gen gs ->
          for k = 0 to gs.Types.gen_arity - 1 do
            acc := f !acc (block (P.Level (label, nid, k)) level)
          done
      | _ -> ());
      acc := f !acc (block (P.Node (label, nid)) (Gen.component ws n.Graph.kind)))
    g;
  !acc

let collect fold = List.rev (fold (fun acc b -> b :: acc) [])

let datapath ?(ws = Gen.default_widths) (g : Graph.t) : P.t =
  collect (fun f acc -> fold_datapath ws f acc g)

let count_ports (pm : Pv_memory.Portmap.t) ~inst =
  Array.fold_left
    (fun (l, s) p ->
      if p.Pv_memory.Portmap.instance = inst then
        match p.Pv_memory.Portmap.kind with
        | Pv_memory.Portmap.OLoad -> (l + 1, s)
        | Pv_memory.Portmap.OStore -> (l, s + 1)
      else (l, s))
    (0, 0) pm.Pv_memory.Portmap.ports

(* The memory-subsystem macros.  [dp_luts] is the datapath's LUT count;
   PreVV's replay copy charges a share of it. *)
let subsystem ws (g : Graph.t) (pm : Pv_memory.Portmap.t) dis ~dp_luts =
  let macro ?i name region parts = { P.scope = P.Macro (name, i); region; parts } in
  let n_direct =
    Array.fold_left
      (fun acc p -> if p.Pv_memory.Portmap.instance = None then acc + 1 else acc)
      0 pm.Pv_memory.Portmap.ports
  in
  let mc =
    if n_direct > 0 then
      [ macro "mc" P.Datapath (Gen.mem_controller ~nports:n_direct ws) ]
    else []
  in
  let total_ports = Array.length pm.Pv_memory.Portmap.ports in
  let ngroups = pm.Pv_memory.Portmap.n_groups in
  let per_instance name parts =
    List.init pm.Pv_memory.Portmap.n_instances (fun i ->
        let nload_ports, nstore_ports = count_ports pm ~inst:(Some i) in
        macro ~i name P.Queue (parts ~nload_ports ~nstore_ports))
  in
  let queue =
    match dis with
    | D_plain_lsq depth | D_fast_lsq depth ->
        let fast_alloc = match dis with D_fast_lsq _ -> true | _ -> false in
        (* one pooled LSQ per ambiguous array interface, as synthesised by
           Dynamatic for multi-array kernels *)
        per_instance "lsq" (Gen.lsq ~depth ~ngroups ~fast_alloc ws)
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
                 ~member_datapath_luts ws)
    | D_oracle ->
        (* analytic bound: perfect disambiguation costs no hardware *)
        []
    | D_serial ->
        per_instance "ser" (fun ~nload_ports ~nstore_ports ->
            Gen.serializer ~nports:(nload_ports + nstore_ports) ~ngroups ws)
  in
  mc @ queue

(** Every block of the circuit, folded through [f] in netlist order: the
    datapath in node order, then the memory-subsystem macros.  The
    datapath's LUT sum (PreVV's replay copy is sized from it) is tallied
    as the blocks pass, so the graph is walked once. *)
let fold ?(ws = Gen.default_widths) f acc (g : Graph.t)
    (pm : Pv_memory.Portmap.t) (dis : disambiguation) =
  let dp = P.tally () in
  let acc =
    fold_datapath ws
      (fun acc b ->
        P.tally_add dp b.P.parts;
        f acc b)
      acc g
  in
  List.fold_left f acc (subsystem ws g pm dis ~dp_luts:(P.tallied dp).P.luts)

let circuit ?ws (g : Graph.t) (pm : Pv_memory.Portmap.t)
    (dis : disambiguation) : P.t =
  collect (fun f acc -> fold ?ws f acc g pm dis)

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
