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
  mutable inputs : chan_id array;  (** index = input slot; -1 = unwired *)
  mutable outputs : chan_id array;
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
