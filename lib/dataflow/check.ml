(** Structural validation of a finalized graph.

    Three properties are enforced before simulation:
    - every declared input/output slot of every node is wired;
    - every buffer has at least one slot;
    - every directed cycle of the graph passes through an opaque buffer
      (otherwise the combinational fixed-point of a cycle would not
      converge — the circuit would have a combinational loop). *)

open Types

type error =
  | Unwired of { node : node_id; label : string; dir : string; slot : int }
  | Empty_buffer of { node : node_id; label : string; slots : int }
  | Combinational_cycle of node_id list

let pp_error ppf = function
  | Unwired { node; label; dir; slot } ->
      Format.fprintf ppf "node %d (%s): %s slot %d is unwired" node label dir
        slot
  | Empty_buffer { node; label; slots } ->
      Format.fprintf ppf "node %d (%s): buffer has %d slots, needs at least 1"
        node label slots
  | Combinational_cycle path ->
      Format.fprintf ppf "combinational cycle through nodes %a"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " -> ")
           Format.pp_print_int)
        path

exception Invalid of error

let errors (g : Graph.t) : error list =
  let errs = ref [] in
  Graph.iter_nodes
    (fun n ->
      Array.iteri
        (fun slot c ->
          if c = -1 then
            errs :=
              Unwired { node = n.Graph.nid; label = n.Graph.label; dir = "input"; slot }
              :: !errs)
        n.Graph.inputs;
      Array.iteri
        (fun slot c ->
          if c = -1 then
            errs :=
              Unwired { node = n.Graph.nid; label = n.Graph.label; dir = "output"; slot }
              :: !errs)
        n.Graph.outputs;
      match n.Graph.kind with
      | Buffer { slots; _ } when slots < 1 ->
          errs :=
            Empty_buffer { node = n.Graph.nid; label = n.Graph.label; slots }
            :: !errs
      | _ -> ())
    g;
  (* cycle detection over the graph with opaque buffers removed *)
  let n = Graph.n_nodes g in
  let breaks_path node =
    match (Graph.node g node).Graph.kind with
    | Buffer { transparent = false; _ } -> true
    | _ -> false
  in
  let succs nid =
    let node = Graph.node g nid in
    Array.to_list node.Graph.outputs
    |> List.filter_map (fun cid ->
           if cid = -1 then None
           else
             let c = Graph.chan g cid in
             let d = c.Graph.dst.Graph.node in
             if breaks_path d then None else Some d)
  in
  (* colours: 0 = white, 1 = grey, 2 = black *)
  let colour = Array.make n 0 in
  let cycle = ref None in
  let rec dfs path nid =
    if !cycle = None then
      match colour.(nid) with
      | 1 -> cycle := Some (List.rev (nid :: path))
      | 2 -> ()
      | _ ->
          colour.(nid) <- 1;
          List.iter (dfs (nid :: path)) (succs nid);
          colour.(nid) <- 2
  in
  for i = 0 to n - 1 do
    if colour.(i) = 0 && not (breaks_path i) then dfs [] i
  done;
  (match !cycle with
  | Some path -> errs := Combinational_cycle path :: !errs
  | None -> ());
  List.rev !errs

let validate_exn g =
  match errors g with [] -> () | e :: _ -> raise (Invalid e)
