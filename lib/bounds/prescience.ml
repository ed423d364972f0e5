open Pv_kernels
module Depend = Pv_frontend.Depend
module Portmap = Pv_memory.Portmap
module Types = Pv_dataflow.Types

type t = {
  n_seq : int;
  n_ports : int;
  seen : Bytes.t;  (* slot -> '\001' when the operation executed *)
  addrs : int array;  (* slot -> flat address *)
  values : int array;  (* slot -> loaded value / stored payload *)
  st_start : int array;
      (* address -> first index of its stores in [st_slots]; one extra
         entry closes the last run *)
  st_slots : int array;  (* store slots grouped by address, ascending *)
}

let n_seq t = t.n_seq
let n_ports t = t.n_ports
let slot t ~seq ~port = (seq * t.n_ports) + port

let recorded t s =
  Bytes.get t.seen s <> '\000'

let addr t s = t.addrs.(s)
let value t s = t.values.(s)

let youngest_older_store t ~addr ~slot =
  if addr < 0 || addr >= Array.length t.st_start - 1 then -1
  else
    (* rightmost store slot < [slot] in this address's run *)
    let base = t.st_start.(addr) in
    let lo = ref base and hi = ref t.st_start.(addr + 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if t.st_slots.(mid) < slot then lo := mid + 1 else hi := mid
    done;
    if !lo = base then -1 else t.st_slots.(!lo - 1)

(* --- leaves compiled against their port numbering -------------------------- *)

type cexpr =
  | Const of int
  | Iv of int  (* field of the trace row *)
  | Load of int * cexpr  (* port, flat address *)
  | Reuse of int  (* CSE duplicate: the value an earlier port loaded *)
  | Un of Types.unop * cexpr
  | Bin of Types.binop * cexpr * cexpr

type store = { port : int; st_addr : cexpr; data : cexpr }
type leaf = Plain of store | Cond of cexpr * store list * store list

(* The lowered leaf with loop variables resolved to trace-row fields,
   parameters to constants and array accesses to flat addresses. *)
let compile_leaf ~params ~layout (leaf : Depend.leaf_info) =
  let var v =
    match List.assoc_opt v params with
    | Some n -> Const n
    | None ->
        let rec find i = function
          | [] -> invalid_arg ("Prescience.walk: unbound variable " ^ v)
          | x :: _ when String.equal x v -> Iv (i + 1)
          | _ :: rest -> find (i + 1) rest
        in
        find 0 leaf.Depend.loop_vars
  in
  let address array index =
    Bin (Types.Add, index, Const (Pv_memory.Layout.base layout array))
  in
  let rec expr (e : Depend.lexpr) =
    match e with
    | Depend.Int n -> Const n
    | Depend.Var v -> var v
    | Depend.Un (u, x) -> Un (u, expr x)
    | Depend.Bin (b, x, y) -> Bin (b, expr x, expr y)
    | Depend.Load { port; array; index } ->
        Load (port, address array (expr index))
    | Depend.Reuse { port; _ } -> Reuse port
  in
  let store (st : Depend.lstore) =
    {
      port = st.Depend.port;
      st_addr = address st.Depend.array (expr st.Depend.index);
      data = expr st.Depend.value;
    }
  in
  match leaf.Depend.lowered with
  | Depend.Plain st -> Plain (store st)
  | Depend.Cond (c, th, el) ->
      Cond (expr c, List.map store th, List.map store el)

(* --- the walk ------------------------------------------------------------- *)

type walker = {
  t : t;
  mem : int array;
  last : int array;  (* port -> value it loaded in the current instance *)
  mutable base : int;  (* slot of port 0 in the current instance *)
  table : int array;  (* this walk's fill of the trace's table *)
  mutable row : int;  (* offset of the current instance's row in [table] *)
}

let in_bounds w a = a >= 0 && a < Array.length w.mem

let record w port a v =
  let s = w.base + port in
  Bytes.unsafe_set w.t.seen s '\001';
  w.t.addrs.(s) <- a;
  w.t.values.(s) <- v

let rec eval w = function
  | Const n -> n
  | Iv i -> w.table.(w.row + i)
  | Reuse p -> w.last.(p)
  | Un (u, x) -> Types.eval_unop u (eval w x)
  | Bin (b, x, y) ->
      let x = eval w x in
      let y = eval w y in
      Types.eval_binop b x y
  | Load (p, a) ->
      let a = eval w a in
      let v = if in_bounds w a then w.mem.(a) else 0 in
      record w p a v;
      w.last.(p) <- v;
      v

let exec w st =
  let a = eval w st.st_addr in
  let d = eval w st.data in
  record w st.port a d;
  if in_bounds w a then w.mem.(a) <- d

let walk (k : Ast.kernel) (info : Depend.info) (trace : Pv_frontend.Trace.t)
    layout mem =
  let pm = info.Depend.portmap in
  let n_ports = Array.length pm.Portmap.ports in
  let leaves =
    Array.of_list
      (List.map (compile_leaf ~params:k.Ast.params ~layout) info.Depend.leaves)
  in
  let n_seq = Pv_frontend.Trace.length trace in
  let n_slots = n_seq * n_ports in
  let t =
    {
      n_seq;
      n_ports;
      seen = Bytes.make n_slots '\000';
      addrs = Array.make n_slots 0;
      values = Array.make n_slots 0;
      st_start = Array.make (Array.length mem + 1) 0;
      st_slots = [||];
    }
  in
  let arity = trace.Types.gen_arity and table = trace.Types.gen_fill () in
  let w =
    { t; mem = Array.copy mem; last = Array.make n_ports 0; base = 0; table; row = 0 }
  in
  for seq = 0 to n_seq - 1 do
    w.base <- seq * n_ports;
    w.row <- seq * arity;
    match leaves.(w.table.(w.row)) with
    | Plain st -> exec w st
    | Cond (c, th, el) -> List.iter (exec w) (if eval w c <> 0 then th else el)
  done;
  (* index the in-memory stores by address: a counting sort over slots in
     ascending order, so every address's run comes out sorted *)
  let stores =
    List.filter_map
      (fun (p : Portmap.port) ->
        if p.Portmap.kind = Portmap.OStore then Some p.Portmap.id else None)
      (Array.to_list pm.Portmap.ports)
  in
  let each_store f =
    for seq = 0 to n_seq - 1 do
      List.iter
        (fun port ->
          let s = (seq * n_ports) + port in
          if recorded t s && in_bounds w t.addrs.(s) then f s t.addrs.(s))
        stores
    done
  in
  let start = t.st_start in
  each_store (fun _ a -> start.(a + 1) <- start.(a + 1) + 1);
  for a = 1 to Array.length start - 1 do
    start.(a) <- start.(a) + start.(a - 1)
  done;
  let st_slots = Array.make start.(Array.length start - 1) 0 in
  let fill = Array.sub start 0 (Array.length start - 1) in
  each_store (fun s a ->
      st_slots.(fill.(a)) <- s;
      fill.(a) <- fill.(a) + 1);
  { t with st_slots }
