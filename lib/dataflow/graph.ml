(** Construction of elastic dataflow graphs.

    A graph is a set of nodes connected by single-slot channels; elasticity
    (pipelining capacity) comes from explicit {!Types.Buffer} nodes, exactly
    as in real dataflow circuits where every channel is a wire pair and
    storage is a component. *)

open Types

type endpoint = { node : node_id; slot : int }

type channel = {
  cid : chan_id;
  src : endpoint;
  dst : endpoint;
  width : int;  (** data width in bits, used by the resource model *)
}

type node = {
  nid : node_id;
  kind : kind;
  label : string;
  inputs : chan_id array;  (** index = input slot; -1 = unwired *)
  outputs : chan_id array;
}

type t = {
  nodes : node array;
  chans : channel array;
}

type builder = {
  mutable b_nodes : node array;  (** index = node id; [n_count] in use *)
  mutable b_chans : channel list;  (** reverse order *)
  mutable n_count : int;
  mutable c_count : int;
}

let create () = { b_nodes = [||]; b_chans = []; n_count = 0; c_count = 0 }

let add ?label b kind =
  let n_in, n_out = kind_arity kind in
  let nid = b.n_count in
  let label = match label with Some l -> l | None -> kind_name kind in
  let node =
    {
      nid;
      kind;
      label;
      inputs = Array.make n_in (-1);
      outputs = Array.make n_out (-1);
    }
  in
  if nid = Array.length b.b_nodes then begin
    (* double the store; the new node fills the unused slots until then *)
    let grown = Array.make (max 16 (2 * nid)) node in
    Array.blit b.b_nodes 0 grown 0 nid;
    b.b_nodes <- grown
  end;
  b.b_nodes.(nid) <- node;
  b.n_count <- nid + 1;
  nid

let node_of b nid =
  if nid < 0 || nid >= b.n_count then
    invalid_arg (Printf.sprintf "connect: no node %d" nid);
  b.b_nodes.(nid)

let connect ?(width = 32) b (src, sslot) (dst, dslot) =
  let sn = node_of b src and dn = node_of b dst in
  if sslot < 0 || sslot >= Array.length sn.outputs then
    invalid_arg
      (Printf.sprintf "connect: node %d (%s) has no output slot %d" src
         sn.label sslot);
  if dslot < 0 || dslot >= Array.length dn.inputs then
    invalid_arg
      (Printf.sprintf "connect: node %d (%s) has no input slot %d" dst
         dn.label dslot);
  if sn.outputs.(sslot) <> -1 then
    invalid_arg
      (Printf.sprintf "connect: output %d of node %d (%s) already wired" sslot
         src sn.label);
  if dn.inputs.(dslot) <> -1 then
    invalid_arg
      (Printf.sprintf "connect: input %d of node %d (%s) already wired" dslot
         dst dn.label);
  let cid = b.c_count in
  b.c_count <- cid + 1;
  let chan =
    { cid; src = { node = src; slot = sslot }; dst = { node = dst; slot = dslot }; width }
  in
  b.b_chans <- chan :: b.b_chans;
  sn.outputs.(sslot) <- cid;
  dn.inputs.(dslot) <- cid

(* channel ids are dense and the list is newest first, so the reversed
   list is already in id order *)
let finalize b : t =
  {
    nodes = Array.sub b.b_nodes 0 b.n_count;
    chans = Array.of_list (List.rev b.b_chans);
  }

let n_nodes g = Array.length g.nodes
let n_chans g = Array.length g.chans
let node g nid = g.nodes.(nid)
let chan g cid = g.chans.(cid)

let iter_nodes f g = Array.iter f g.nodes
let iter_chans f g = Array.iter f g.chans

(** Count of nodes matching a predicate; used by reports and tests. *)
let count_nodes p g =
  Array.fold_left (fun acc n -> if p n then acc + 1 else acc) 0 g.nodes

(* Kahn's algorithm with [order] doubling as the FIFO: zero in-degree nodes
   in id order, then each popped node's successors in output-slot order *)
let topo_order g =
  let n = Array.length g.nodes in
  let indeg = Array.make n 0 in
  for c = 0 to Array.length g.chans - 1 do
    let d = g.chans.(c).dst.node in
    indeg.(d) <- indeg.(d) + 1
  done;
  let order = Array.make n 0 and tail = ref 0 in
  let push v =
    order.(!tail) <- v;
    incr tail
  in
  for i = 0 to n - 1 do
    if indeg.(i) = 0 then push i
  done;
  let head = ref 0 in
  while !head < !tail do
    let outs = g.nodes.(order.(!head)).outputs in
    incr head;
    for s = 0 to Array.length outs - 1 do
      if outs.(s) <> -1 then begin
        let v = g.chans.(outs.(s)).dst.node in
        indeg.(v) <- indeg.(v) - 1;
        if indeg.(v) = 0 then push v
      end
    done
  done;
  if !tail = n then Some order else None

(* Array seeds: static constants, never young blocks, so an [Array.make]
   past the minor-heap object limit does not first empty the minor heap. *)
let dummy_node = { nid = -1; kind = Sink; label = ""; inputs = [||]; outputs = [||] }

let dummy_chan =
  { cid = -1; src = { node = -1; slot = 0 }; dst = { node = -1; slot = 0 }; width = 0 }

let splice_buffers g slots =
  let n = Array.length g.nodes and m = Array.length g.chans in
  (* out_id.(c): c's new id, i.e. the channel its source now drives *)
  let out_id = Array.make m 0 in
  let k = ref 0 in
  for c = 0 to m - 1 do
    out_id.(c) <- c + !k;
    if slots.(c) > 0 then incr k
  done;
  let k = !k in
  let remap_in cid =
    if cid = -1 then -1 else if slots.(cid) > 0 then out_id.(cid) + 1 else out_id.(cid)
  and remap_out cid = if cid = -1 then -1 else out_id.(cid) in
  let nodes = Array.make (n + k) dummy_node in
  for i = 0 to n - 1 do
    let nd = g.nodes.(i) in
    nodes.(i) <-
      { nd with inputs = Array.map remap_in nd.inputs; outputs = Array.map remap_out nd.outputs }
  done;
  let chans = Array.make (m + k) dummy_chan in
  for c = 0 to m - 1 do
    let ch = g.chans.(c) and id = out_id.(c) in
    if slots.(c) > 0 then begin
      (* id - c spliced channels precede c: that is this buffer's rank *)
      let b = n + id - c in
      let port = { node = b; slot = 0 } in
      nodes.(b) <-
        {
          nid = b;
          kind = Buffer { transparent = true; slots = slots.(c) };
          label = "slack";
          inputs = [| id |];
          outputs = [| id + 1 |];
        };
      chans.(id) <- { ch with cid = id; dst = port };
      chans.(id + 1) <- { ch with cid = id + 1; src = port }
    end
    else chans.(id) <- (if id = c then ch else { ch with cid = id })
  done;
  { nodes; chans }
