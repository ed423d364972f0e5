(** Throughput balancing: slack-buffer insertion on reconvergent paths.

    An elastic circuit only sustains II = 1 if, at every join, the shorter
    of two reconvergent paths has enough token capacity to absorb the skew
    of the longer one; otherwise the upstream fork stalls.  Dynamatic runs
    a buffer-placement optimisation for exactly this reason (cf. Xu &
    Josipović, FPGA'24); we implement the standard longest-path variant:
    compute each node's depth from the generator and give every lagging
    input of a multi-input node a FIFO sized to the skew. *)

open Pv_dataflow

(* Nominal per-node latency for depth computation: one cycle for the channel
   register plus internal pipeline stages. *)
let latency_of ?(op_latency = Sim.default_latency) (n : Graph.node) =
  match n.Graph.kind with
  | Types.Binop op -> 1 + op_latency op
  | Types.Load _ -> 1 + 2
  | Types.Buffer _ -> 1
  | _ -> 1

(** Buffer sizes per channel needed for II=1: [slots.(cid) = 0] means no
    buffer.  Builds produce DAGs (the generator is the only source and
    there are no back edges), so depths follow one topological walk. *)
let plan ?op_latency (g : Graph.t) : int array =
  let order =
    match Graph.topo_order g with
    | Some order -> order
    | None -> invalid_arg "Balance: graph has a cycle; balancing requires a DAG"
  in
  let depth = Array.make (Graph.n_nodes g) 0 in
  let src_depth cid = depth.((Graph.chan g cid).Graph.src.Graph.node) in
  (* the deepest input of a node: when its last operand arrives *)
  let arrival (node : Graph.node) =
    let inmax = ref 0 in
    for s = 0 to Array.length node.Graph.inputs - 1 do
      let cid = node.Graph.inputs.(s) in
      if cid <> -1 then inmax := max !inmax (src_depth cid)
    done;
    !inmax
  in
  for i = 0 to Array.length order - 1 do
    let node = Graph.node g order.(i) in
    depth.(node.Graph.nid) <- arrival node + latency_of ?op_latency node
  done;
  let slots = Array.make (Graph.n_chans g) 0 in
  for nid = 0 to Graph.n_nodes g - 1 do
    let node = Graph.node g nid in
    let inputs = node.Graph.inputs in
    if Array.length inputs >= 2 then begin
      let target = arrival node in
      for s = 0 to Array.length inputs - 1 do
        let cid = inputs.(s) in
        if cid <> -1 then begin
          let d = target - src_depth cid in
          if d > 0 then slots.(cid) <- d + 1
        end
      done
    end
  done;
  slots

(** [g] with a slack FIFO spliced into every channel that the plan sizes
    above zero ({!Graph.splice_buffers}: node ids of original nodes are
    preserved). *)
let insert_buffers = Graph.splice_buffers

let apply ?op_latency (g : Graph.t) : Graph.t =
  let slots = plan ?op_latency g in
  if Array.for_all (fun s -> s = 0) slots then g else insert_buffers g slots
