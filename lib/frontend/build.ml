(** Elaboration of a kernel into an elastic dataflow circuit.

    The circuit follows the Dynamatic construction adapted to PreVV-style
    replay: a rewindable loop-nest generator (the fused chain of control
    merges/branches) dispatches body-instance tokens to one gated datapath
    per leaf statement; each datapath is a DAG of functional units, forks
    and memory ports, with a small FIFO in front of every ambiguous port
    (the decoupling FIFO of Fig. 3).  Conditional leaves route their
    tokens through branches and notify the disambiguation backend of
    untaken paths through {!Pv_dataflow.Types.Skip} nodes — the fake
    tokens of Sec. V-C (omitted when [fake_tokens] is false, which
    reproduces the Fig. 6 deadlock).

    Each datapath is compiled from the leaf {!Depend} lowered, so its ports
    are the analysis' ports; a load that the analysis reused (load CSE) is
    one port whose value is forked.  Multiplications by compile-time
    constants are strength-reduced to {!Pv_dataflow.Types.Mulc}. *)

open Pv_kernels
open Pv_dataflow

type options = {
  fake_tokens : bool;  (** wire Skip nodes for conditional pair members *)
  balance : bool;  (** slack-buffer insertion for II=1 (see {!Balance}) *)
  cse : bool;
      (** deduplicate repeated loads per leaf; read by {!Depend.analyse},
          whose lowered leaves this builder follows *)
}

let default_options = { fake_tokens = true; balance = true; cse = false }

(* --- token supplies ------------------------------------------------------ *)

type supply = { s_name : string; mutable avail : (int * int) list }

let take s =
  match s.avail with
  | e :: rest ->
      s.avail <- rest;
      e
  | [] -> failwith (Printf.sprintf "Build: supply %s exhausted" s.s_name)

(* Fan a source endpoint out into [n] usable endpoints (0 = discard); the
   fork is labelled [label], by default "fork_" ^ [name]. *)
let make_supply ?label b name src n : supply =
  if n = 0 then begin
    let s = Graph.add b Types.Sink in
    Graph.connect b src (s, 0);
    { s_name = name; avail = [] }
  end
  else if n = 1 then { s_name = name; avail = [ src ] }
  else begin
    let label = Option.value label ~default:("fork_" ^ name) in
    let f = Graph.add ~label b (Types.Fork n) in
    Graph.connect b src (f, 0);
    { s_name = name; avail = List.init n (fun i -> (f, i)) }
  end

(* --- token demand ------------------------------------------------------- *)

(* What a lowered leaf takes from its supplies, from one walk over it.
   Every literal, parameter and array base takes a control token and every
   loop-variable use a token of that variable.  Inside a branch each of
   those takes, and each guarded reuse, passes a guard that takes one
   condition token; so does every skip structure, which also takes a
   control token. *)
type demand = {
  vars : (string, int) Hashtbl.t;  (** loop variable -> uses *)
  ctrl : int;
  fanout : (int, int) Hashtbl.t;  (** load port -> the load plus its reuses *)
  cond : int;  (** condition-fork size *)
  skips : int list * int list;
      (** ambiguous ports of the then and else stores, in port order: the
          ops that need a skip structure *)
}

let bump tbl k =
  Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))

let demand ~params ~pm (lowered : Depend.lowered) =
  let vars = Hashtbl.create 8 and fanout = Hashtbl.create 8 in
  let ctrl = ref 0 in
  (* guarded takes and ambiguous ports since the current branch began *)
  let guarded = ref 0 and ambiguous = ref [] in
  let take_ctrl () =
    incr ctrl;
    incr guarded
  in
  let port p =
    if Pv_memory.Portmap.is_ambiguous pm p then ambiguous := p :: !ambiguous
  in
  let rec expr (e : Depend.lexpr) =
    match e with
    | Depend.Int _ -> take_ctrl ()
    | Depend.Var v when List.mem_assoc v params -> take_ctrl ()
    | Depend.Var v ->
        bump vars v;
        incr guarded
    | Depend.Un (_, x) -> expr x
    | Depend.Bin (_, x, y) ->
        expr x;
        expr y
    | Depend.Load { port = p; index; _ } ->
        expr index;
        take_ctrl () (* base-address constant *);
        bump fanout p;
        port p
    | Depend.Reuse { port = p; guarded = g } ->
        bump fanout p;
        if g then incr guarded
  in
  let store (st : Depend.lstore) =
    expr st.Depend.index;
    expr st.Depend.value;
    take_ctrl () (* the store's own base-address constant *);
    port st.Depend.port
  in
  let branch stores =
    guarded := 0;
    ambiguous := [];
    List.iter store stores;
    (!guarded, List.rev !ambiguous)
  in
  let cond, skips =
    match lowered with
    | Depend.Plain st ->
        store st;
        (0, ([], []))
    | Depend.Cond (c, t, e) ->
        expr c;
        let t_guarded, t_skips = branch t in
        let e_guarded, e_skips = branch e in
        let n_skips = List.length t_skips + List.length e_skips in
        ctrl := !ctrl + n_skips;
        (t_guarded + e_guarded + n_skips, (t_skips, e_skips))
  in
  { vars; ctrl = !ctrl; fanout; cond; skips }

(* --- compilation context -------------------------------------------------- *)

type ctx = {
  b : Graph.builder;
  layout : Pv_memory.Layout.t;
  params : (string * int) list;
  pm : Pv_memory.Portmap.t;
  opts : options;
  vars : (string, supply) Hashtbl.t;
  ctrl : supply;
  guard : (bool * supply) option;
      (** in a branch: every token source passes a Branch steered by a copy
          of the condition; [true] for the else side *)
  fanout : (int, int) Hashtbl.t;
  shared : (int, supply) Hashtbl.t;  (** forked values of reused loads *)
}

(* Guard for conditional branches: Branch output 0 is the taken side.
   [flip] selects the else-branch (pass when the condition is false). *)
let apply_guard ctx ep =
  match ctx.guard with
  | None -> ep
  | Some (flip, cond_supply) ->
      let cond = take cond_supply in
      let br = Graph.add ~label:"guard" ctx.b Types.Branch in
      Graph.connect ctx.b ep (br, 0);
      Graph.connect ctx.b cond (br, 1);
      let pass, drop = if flip then (1, 0) else (0, 1) in
      let sink = Graph.add ctx.b Types.Sink in
      Graph.connect ctx.b (br, drop) (sink, 0);
      (br, pass)

(* A constant token: consumes one (guarded) control token. *)
let const_node ctx n =
  let ep = apply_guard ctx (take ctx.ctrl) in
  let c = Graph.add ctx.b (Types.Const n) in
  Graph.connect ctx.b ep (c, 0);
  (c, 0)

(* Depth of the FIFO in front of an ambiguous port (Fig. 3). *)
let fifo_slots = 4

let fifo ctx src =
  let buf =
    Graph.add ~label:"fifo" ctx.b
      (Types.Buffer { transparent = true; slots = fifo_slots })
  in
  Graph.connect ctx.b src (buf, 0);
  (buf, 0)

let rec compile_expr ctx (e : Depend.lexpr) : int * int =
  match e with
  | Depend.Int n -> const_node ctx n
  | Depend.Var v -> (
      match List.assoc_opt v ctx.params with
      | Some n -> const_node ctx n
      | None -> (
          match Hashtbl.find_opt ctx.vars v with
          | Some s -> apply_guard ctx (take s)
          | None -> failwith (Printf.sprintf "Build: unbound variable %s" v)))
  | Depend.Un (u, x) ->
      let ep = compile_expr ctx x in
      let n = Graph.add ctx.b (Types.Unop u) in
      Graph.connect ctx.b ep (n, 0);
      (n, 0)
  | Depend.Bin (op, x, y) ->
      let ex = compile_expr ctx x in
      let ey = compile_expr ctx y in
      let is_const = function
        | Depend.Int _ -> true
        | Depend.Var v -> List.mem_assoc v ctx.params
        | _ -> false
      in
      let op =
        (* strength-reduce multiplication by a compile-time constant *)
        if op = Types.Mul && (is_const x || is_const y) then Types.Mulc else op
      in
      let n = Graph.add ctx.b (Types.Binop op) in
      Graph.connect ctx.b ex (n, 0);
      Graph.connect ctx.b ey (n, 1);
      (n, 0)
  | Depend.Load { port; array; index } ->
      let addr = compile_addr ctx array index in
      let load =
        Graph.add ~label:("load_" ^ array) ctx.b (Types.Load { port })
      in
      let ambiguous = Pv_memory.Portmap.is_ambiguous ctx.pm port in
      let addr = if ambiguous then fifo ctx addr else addr in
      Graph.connect ctx.b addr (load, 0);
      let uses = Hashtbl.find ctx.fanout port in
      if uses = 1 then (load, 0)
      else begin
        (* reused: fork the loaded value once per use *)
        let name = "cse_" ^ array in
        let s = make_supply ~label:name ctx.b name (load, 0) uses in
        Hashtbl.replace ctx.shared port s;
        take s
      end
  | Depend.Reuse { port; guarded } ->
      (* an unconditional load reused inside a branch passes through the
         branch's guard; same-scope reuses are already gated by the load's
         own (guarded) inputs *)
      let ep = take (Hashtbl.find ctx.shared port) in
      if guarded then apply_guard ctx ep else ep

and compile_addr ctx a ix =
  let ep = compile_expr ctx ix in
  let base = const_node ctx (Pv_memory.Layout.base ctx.layout a) in
  let add = Graph.add ~label:("addr_" ^ a) ctx.b (Types.Binop Types.Add) in
  Graph.connect ctx.b ep (add, 0);
  Graph.connect ctx.b base (add, 1);
  (add, 0)

let compile_store ctx (st : Depend.lstore) =
  let addr = compile_addr ctx st.Depend.array st.Depend.index in
  let data = compile_expr ctx st.Depend.value in
  let port = st.Depend.port in
  let node =
    Graph.add ~label:("store_" ^ st.Depend.array) ctx.b (Types.Store { port })
  in
  let ambiguous = Pv_memory.Portmap.is_ambiguous ctx.pm port in
  let addr = if ambiguous then fifo ctx addr else addr in
  let data = if ambiguous then fifo ctx data else data in
  Graph.connect ctx.b addr (node, 0);
  Graph.connect ctx.b data (node, 1)

(* Conditional ambiguous ports must notify the backend on the untaken path
   (fake tokens, Sec. V-C).  [flip] mirrors the branch side. *)
let add_skip ~flip ctx cond_supply port =
  let data = take ctx.ctrl in
  let cond = take cond_supply in
  let br = Graph.add ~label:"skip_route" ctx.b Types.Branch in
  Graph.connect ctx.b data (br, 0);
  Graph.connect ctx.b cond (br, 1);
  let on_taken, on_untaken = if flip then (1, 0) else (0, 1) in
  let sink = Graph.add ctx.b Types.Sink in
  Graph.connect ctx.b (br, on_taken) (sink, 0);
  if ctx.opts.fake_tokens then begin
    let sk = Graph.add ctx.b (Types.Skip { port }) in
    Graph.connect ctx.b (br, on_untaken) (sk, 0)
  end
  else begin
    let sink2 = Graph.add ctx.b Types.Sink in
    Graph.connect ctx.b (br, on_untaken) (sink2, 0)
  end

let compile_leaf ctx d (lowered : Depend.lowered) =
  match lowered with
  | Depend.Plain st -> compile_store ctx st
  | Depend.Cond (c, t, e) ->
      let cond = make_supply ctx.b "cond" (compile_expr ctx c) d.cond in
      List.iter (compile_store { ctx with guard = Some (false, cond) }) t;
      List.iter (compile_store { ctx with guard = Some (true, cond) }) e;
      let t_skips, e_skips = d.skips in
      List.iter (add_skip ~flip:false ctx cond) t_skips;
      List.iter (add_skip ~flip:true ctx cond) e_skips

(** Build the full circuit for [k].  Returns the graph; the generator node
    embeds the trace. *)
let circuit ?(options = default_options) (k : Ast.kernel) (info : Depend.info)
    (layout : Pv_memory.Layout.t) (trace : Trace.t) : Graph.t =
  let b = Graph.create () in
  let arity = trace.Types.gen_arity in
  let gen = Graph.add ~label:"loopnest" b (Types.Gen trace) in
  let leaves = info.Depend.leaves in
  let n_leaves = List.length leaves in
  (* fan each generator output out to every leaf gate *)
  let leaf_inputs =
    Array.init arity (fun kslot ->
        if n_leaves = 1 then Array.make 1 (gen, kslot)
        else begin
          let f = Graph.add ~label:"dispatch" b (Types.Fork n_leaves) in
          Graph.connect b (gen, kslot) (f, 0);
          Array.init n_leaves (fun j -> (f, j))
        end)
  in
  List.iteri
    (fun li (leaf : Depend.leaf_info) ->
      let d =
        demand ~params:k.Ast.params ~pm:info.Depend.portmap leaf.Depend.lowered
      in
      (* gate: match the statement id *)
      let fsid = Graph.add ~label:"gate_sid" b (Types.Fork 3) in
      Graph.connect b leaf_inputs.(0).(li) (fsid, 0);
      let cnode = Graph.add b (Types.Const leaf.Depend.leaf_id) in
      Graph.connect b (fsid, 0) (cnode, 0);
      let eq = Graph.add ~label:"gate_eq" b (Types.Binop Types.Eq) in
      Graph.connect b (fsid, 1) (eq, 0);
      Graph.connect b (cnode, 0) (eq, 1);
      let n_gates = arity - 1 + 1 in
      let feq = Graph.add ~label:"gate_cond" b (Types.Fork n_gates) in
      Graph.connect b (eq, 0) (feq, 0);
      let vars = Hashtbl.create 8 in
      (* induction-variable channels *)
      for kslot = 1 to arity - 1 do
        let br = Graph.add ~label:"gate_iv" b Types.Branch in
        Graph.connect b leaf_inputs.(kslot).(li) (br, 0);
        Graph.connect b (feq, kslot - 1) (br, 1);
        let sink = Graph.add b Types.Sink in
        Graph.connect b (br, 1) (sink, 0);
        let var = List.nth_opt leaf.Depend.loop_vars (kslot - 1) in
        match var with
        | Some v ->
            let uses = Option.value ~default:0 (Hashtbl.find_opt d.vars v) in
            Hashtbl.replace vars v (make_supply b ("var_" ^ v) (br, 0) uses)
        | None ->
            let s2 = Graph.add b Types.Sink in
            Graph.connect b (br, 0) (s2, 0)
      done;
      (* control-token channel *)
      let brc = Graph.add ~label:"gate_ctrl" b Types.Branch in
      Graph.connect b (fsid, 2) (brc, 0);
      Graph.connect b (feq, n_gates - 1) (brc, 1);
      let sinkc = Graph.add b Types.Sink in
      Graph.connect b (brc, 1) (sinkc, 0);
      let ctrl = make_supply b "ctrl" (brc, 0) d.ctrl in
      let ctx =
        {
          b;
          layout;
          params = k.Ast.params;
          pm = info.Depend.portmap;
          opts = options;
          vars;
          ctrl;
          guard = None;
          fanout = d.fanout;
          shared = Hashtbl.create 8;
        }
      in
      compile_leaf ctx d leaf.Depend.lowered;
      assert (ctrl.avail = []);
      Hashtbl.iter
        (fun v s ->
          if s.avail <> [] then
            failwith (Printf.sprintf "Build: leftover supply for %s" v))
        vars;
      Hashtbl.iter
        (fun _ s ->
          if s.avail <> [] then failwith "Build: leftover CSE supply")
        ctx.shared)
    leaves;
  let g = Graph.finalize b in
  if options.balance then Balance.apply g else g
