open Types

type engine = Scan | Event

let string_of_engine = function Scan -> "scan" | Event -> "event"

let engine_of_string = function
  | "scan" -> Some Scan
  | "event" -> Some Event
  | _ -> None

type config = {
  max_cycles : int;
  stall_limit : int;
  faults : Fault.plan;
  engine : engine;
  cancel : unit -> bool;
}

exception Cancelled of { at_cycle : int }
exception Cyclic_graph

(* Few, fat stages: the paper's circuits close at 7.2-9.2 ns, implying
   multi-level logic per stage; a 2-stage DSP multiplier and 3-stage
   divider are the corresponding pipelinings. *)
let default_latency = function
  | Mul -> 2
  | Mulc -> 0  (* shift-add network *)
  | Div | Rem -> 3
  | _ -> 0

let default_config =
  {
    max_cycles = 2_000_000;
    stall_limit = 4096;
    faults = [];
    engine = Event;
    cancel = (fun () -> false);
  }

type post_mortem = {
  pm_at_cycle : int;
  pm_last_progress : int;
  pm_epoch : int;
  pm_occupied : int;
  pm_tokens : (chan_id * token) list;
  pm_oldest_seq : int option;
  pm_stalled : (node_id * string * string) list;
  pm_stalled_total : int;
  pm_gens : (node_id * int * bool) list;
  pm_fault_stalls : chan_id list;
  pm_backend : string;
  pm_faults : Fault.application list;
}

type outcome =
  | Finished of { cycles : int }
  | Deadlock of { at_cycle : int; post_mortem : post_mortem }
  | Timeout of { at_cycle : int; post_mortem : post_mortem }

let outcome_name = function
  | Finished _ -> "finished"
  | Deadlock _ -> "deadlock"
  | Timeout _ -> "timeout"

let pp_outcome ppf = function
  | Finished { cycles } -> Format.fprintf ppf "finished in %d cycles" cycles
  | Deadlock { at_cycle; _ } -> Format.fprintf ppf "DEADLOCK at cycle %d" at_cycle
  | Timeout { at_cycle; _ } -> Format.fprintf ppf "timeout at cycle %d" at_cycle

let pp_post_mortem ppf pm =
  Format.fprintf ppf "@[<v>post-mortem at cycle %d:@," pm.pm_at_cycle;
  Format.fprintf ppf "  last progress at cycle %d (%d idle cycles); epoch %d@,"
    pm.pm_last_progress
    (pm.pm_at_cycle - pm.pm_last_progress)
    pm.pm_epoch;
  Format.fprintf ppf "  %d occupied channel(s)%s@," pm.pm_occupied
    (match pm.pm_oldest_seq with
    | Some s -> Printf.sprintf "; oldest in-flight iteration %d" s
    | None -> "");
  List.iter
    (fun (cid, tok) ->
      Format.fprintf ppf "    chan %d: %a@," cid pp_token tok)
    pm.pm_tokens;
  List.iter
    (fun (nid, gseq, gdone) ->
      Format.fprintf ppf "  generator #%d: next seq %d, %s@," nid gseq
        (if gdone then "exhausted" else "not exhausted"))
    pm.pm_gens;
  if pm.pm_fault_stalls <> [] then
    Format.fprintf ppf "  channels under injected stall: %s@,"
      (String.concat ", " (List.map string_of_int pm.pm_fault_stalls));
  if pm.pm_stalled = [] then Format.fprintf ppf "  no node holds work@,"
  else begin
    Format.fprintf ppf "  stalled nodes:@,";
    List.iter
      (fun (nid, label, why) ->
        Format.fprintf ppf "    %s#%d: %s@," label nid why)
      pm.pm_stalled;
    let cut = pm.pm_stalled_total - List.length pm.pm_stalled in
    if cut > 0 then Format.fprintf ppf "    … and %d more@," cut
  end;
  Format.fprintf ppf "  backend: %s@," pm.pm_backend;
  if pm.pm_faults <> [] then begin
    Format.fprintf ppf "  injected faults:@,";
    List.iter
      (fun ap -> Format.fprintf ppf "    %a@," Fault.pp_application ap)
      pm.pm_faults
  end;
  Format.fprintf ppf "@]"

type run_stats = {
  cycles : int;
  node_fires : int array;
  gen_instances : int;
  evals : int;
}

(** One armed fault event: fires at the first applicable cycle at or after
    its [at_cycle], at most once. *)
type fault_state = {
  fs_event : Fault.event;
  mutable fs_fired : int option;
  mutable fs_dead : bool;  (** permanently inapplicable; stop retrying *)
  mutable fs_note : string;
}

(* --- dense opcodes ------------------------------------------------------ *)

(* One dispatch code per dynamic behaviour; [p1]/[p2] carry the static
   per-node parameters (constant, operator code, arity, port, capacity).
   A pipelined Binop (default_latency > 0) gets its own opcode so the hot match
   never re-asks the latency question. *)
let op_gen = 0
let op_const = 1
let op_unop = 2
let op_binop = 3 (* combinational: p1 = binop code *)
let op_pipe = 4 (* pipelined: p1 = binop code, p2 = latency, cap = p2 + 1 *)
let op_fork = 5 (* p1 = n *)
let op_join = 6 (* p1 = n *)
let op_merge = 7 (* p1 = n *)
let op_mux = 8 (* p1 = n *)
let op_branch = 9
let op_tbuf = 10 (* transparent buffer: p1 = slots *)
let op_obuf = 11 (* opaque buffer: p1 = slots *)
let op_sink = 12
let op_load = 13 (* p1 = port *)
let op_store = 14 (* p1 = port *)
let op_skip = 15 (* p1 = port *)
let op_galloc = 16 (* p1 = group *)

(* Pending-store ring capacity per store port, as before the rewrite. *)
let store_pending_cap = 16

type t = {
  g : Graph.t;
  cfg : config;
  mem : Memif.t;
  n : int;  (* nodes *)
  nc : int;  (* channels *)
  (* channel registers, flat; a register holds a packed token key
     ({!Types.Token.t}: seq in the high bits, epoch in the low 20) plus the
     raw value word.  key < 0 means empty (all real keys >= 0), and because
     key order extends seq order, squash cutoffs compare keys directly
     against [Token.first ~seq:seq_err].  Written in place by [put] and
     [take]. *)
  cur_key : int array;
  cur_val : int array;
  stall_until : int array;  (* per channel: consumption blocked below this *)
  chan_src : int array;  (* channel id -> producer slot *)
  chan_dst : int array;  (* channel id -> consumer slot *)
  (* dense dispatch tables, slot-indexed (slot = eval-order position,
     consumers before producers) — built once at [create] *)
  nid_of : int array;  (* slot -> external node id *)
  slot_of : int array;  (* node id -> slot *)
  op : int array;
  p1 : int array;
  p2 : int array;
  in_base : int array;  (* slot -> base into [ins] *)
  in_n : int array;
  out_base : int array;  (* slot -> base into [outs] *)
  out_n : int array;
  ins : int array;  (* flattened input channel ids *)
  outs : int array;  (* flattened output channel ids *)
  (* slot -> first/second input and first output channel id (-1: none),
     so a fixed-arity arm reads its channel in one load *)
  i0 : int array;
  i1 : int array;
  o0 : int array;
  ring : Ring.t array;
      (* per slot: FU pipe (stride 3: ready,key,value), buffer (stride 3:
         key,value,arrival), announced stores (stride 2: key,addr) or load
         responses (stride 1: key); a shared empty ring for slots with
         none — one lane narrower per record than the boxed-token era,
         since the packed key carries seq and epoch together *)
  gen_table : int array array;  (* per slot: the Gen node's schedule, filled at [create] *)
  g_seq : int array;
  g_done : bool array;
  g_emitted : int array;
  fires : int array;  (* fire counts, slot-indexed; [node_fires] maps them *)
  faults : fault_state array;
  (* sparse regime: wake set for the next cycle and the wave being swept,
     both bitsets over slots (32 bits per word); timed wakes (stall
     expiries) in a cycle-bucketed wheel *)
  awake : int array;
  wave : int array;
  wheel : Wheel.t;
  mutable wake_cb : int -> unit;  (* preallocated wheel-drain callback *)
  (* density switch: when nearly every node fires anyway, the wake-set
     bookkeeping (pulls, put wakes, stay-awake tails) costs more than
     the few skipped evaluations are worth, so the engine runs full-pass
     "dense" cycles with [bookkeep] off and, under [Event], returns to the
     swept sparse regime when the fire rate drops (see [step]); [Scan]
     starts dense and stays there *)
  mutable dense : bool;
  mutable bookkeep : bool;  (* not dense: maintain the wake set *)
  mutable nfired : int;  (* node firings this cycle (mode hysteresis, progress) *)
  (* occupancy counters: [finished] in O(1) instead of scanning *)
  mutable occupied : int;  (* channels holding a token *)
  mutable held : int;  (* records in pipe/buffer/store rings *)
  mutable gens_active : int;  (* generators not yet exhausted *)
  lslot : Memif.load_slot;  (* reusable load_poll out-parameter *)
  mutable evals : int;
  mutable epoch : int;
  mutable cycle : int;
  mutable last_progress : int;  (* last cycle with a fire or a squash *)
  (* observability: [trace] is Trace.null unless a sink was passed to
     [create]; every emit site checks [Trace.enabled] first, so a disabled
     trace costs one branch.  [epoch_start]/[last_inflight] carry the open
     epoch span and the last emitted in-flight sample between cycles. *)
  trace : Pv_obs.Trace.t;
  mutable epoch_start : int;
  mutable last_inflight : int;
  (* cycle-attribution profiler: [prof_on] caches [Prof.enabled prof] so
     each eval site pays one load + branch when profiling is off (the
     zero-allocation contract of test_sim_perf.ml covers this path) *)
  prof : Pv_obs.Prof.t;
  prof_on : bool;
  prof_held : int array;  (* Prof's live per-channel held table *)
}

(* --- bitsets over slots ------------------------------------------------- *)

(* 32 bits per word: word = slot lsr 5, bit = slot land 31.  Lowest-set-bit
   extraction uses the 32-bit de Bruijn multiply (the product is masked to
   32 bits because OCaml ints are wider). *)

let debruijn32 =
  [|
    0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8; 31; 27; 13; 23;
    21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9;
  |]

let[@inline] ctz32 lsb =
  Array.unsafe_get debruijn32 ((lsb * 0x077CB531 land 0xFFFFFFFF) lsr 27)

(* The hot paths below index flat arrays with internal invariants only
   (slots < n, channel ids < nc, words < nwords — all established at
   [create]), so they skip the bounds checks; every externally supplied
   index (accessors, fault channels) stays on the checked operations. *)
let[@inline] ag (a : int array) i = Array.unsafe_get a i
let[@inline] aset (a : int array) i v = Array.unsafe_set a i v
let[@inline] agb (a : bool array) i = Array.unsafe_get a i
let[@inline] asetb (a : bool array) i v = Array.unsafe_set a i v

(* Ring traffic on the eval path.  [Ring.t]'s fields are exposed, so these
   compile to plain loads and stores where the [Ring] functions would stay
   out-of-line calls under the dev profile's [-opaque] (DESIGN.md §19).
   [rhead r f] is field [f] of the oldest record; [rpop] drops it.  Callers
   of both check [rlen r > 0] first.  [rpush3] appends with [Ring.push3]'s
   index arithmetic and leaves a full ring to [Ring.push3], which owns the
   growth. *)
let[@inline] rlen (r : Ring.t) = r.Ring.len

let[@inline] rhead (r : Ring.t) f =
  Array.unsafe_get r.Ring.buf ((r.Ring.head * r.Ring.stride) + f)

let[@inline] rpop (r : Ring.t) =
  r.Ring.head <- (r.Ring.head + 1) land r.Ring.mask;
  r.Ring.len <- r.Ring.len - 1

let[@inline] rpush3 (r : Ring.t) a b c =
  let len = r.Ring.len in
  if len > r.Ring.mask then Ring.push3 r a b c
  else begin
    let o = ((r.Ring.head + len) land r.Ring.mask) * r.Ring.stride in
    let buf = r.Ring.buf in
    Array.unsafe_set buf o a;
    Array.unsafe_set buf (o + 1) b;
    Array.unsafe_set buf (o + 2) c;
    r.Ring.len <- len + 1
  end

let[@inline] bs_set (bs : int array) i =
  let w = i lsr 5 in
  aset bs w (ag bs w lor (1 lsl (i land 31)))

(* --- wake set ----------------------------------------------------------- *)

let[@inline] wake t slot = bs_set t.awake slot

let wake_all t =
  let nw = Array.length t.awake in
  for w = 0 to nw - 1 do
    t.awake.(w) <- 0xFFFFFFFF
  done;
  let r = t.n land 31 in
  if r <> 0 then t.awake.(nw - 1) <- (1 lsl r) - 1

(* Evaluation order: consumers strictly before producers (the reversed
   topological order), which the in-place registers rely on; a cyclic
   graph has none. *)
let eval_order (g : Graph.t) : int array =
  match Graph.topo_order g with
  | Some topo ->
      let n = Array.length topo in
      Array.init n (fun i -> topo.(n - 1 - i))
  | None -> raise Cyclic_graph

let kind_name : Types.kind -> string = function
  | Gen _ -> "gen"
  | Const _ -> "const"
  | Unop _ -> "unop"
  | Binop _ -> "binop"
  | Fork _ -> "fork"
  | Join _ -> "join"
  | Merge _ -> "merge"
  | Mux _ -> "mux"
  | Branch -> "branch"
  | Buffer _ -> "buf"
  | Sink -> "sink"
  | Load _ -> "load"
  | Store _ -> "store"
  | Skip _ -> "skip"
  | Galloc _ -> "galloc"

let create ?(cfg = default_config) ?(trace = Pv_obs.Trace.null)
    ?(prof = Pv_obs.Prof.null) (g : Graph.t) (mem : Memif.t) : t =
  Check.validate_exn g;
  let nc = Graph.n_chans g in
  let n = Graph.n_nodes g in
  List.iter
    (fun (e : Fault.event) ->
      let check_chan c =
        if c < 0 || c >= nc then
          invalid_arg
            (Printf.sprintf "Sim.create: fault %s targets channel %d of %d"
               (Fault.string_of_event e) c nc)
      in
      match e.Fault.action with
      | Fault.Drop { chan }
      | Fault.Drop_replay { chan }
      | Fault.Stall { chan; _ }
      | Fault.Flip { chan; _ }
      | Fault.Flip_replay { chan; _ } ->
          check_chan chan
      | Fault.Backend _ -> ())
    cfg.faults;
  let order = eval_order g in
  let slot_of = Array.make n 0 in
  Array.iteri (fun slot nid -> slot_of.(nid) <- slot) order;
  (* flatten the wiring *)
  let total_in = ref 0 and total_out = ref 0 in
  Graph.iter_nodes
    (fun node ->
      total_in := !total_in + Array.length node.Graph.inputs;
      total_out := !total_out + Array.length node.Graph.outputs)
    g;
  let op = Array.make n 0
  and p1 = Array.make n 0
  and p2 = Array.make n 0
  and in_base = Array.make n 0
  and in_n = Array.make n 0
  and out_base = Array.make n 0
  and out_n = Array.make n 0
  and ins = Array.make (max !total_in 1) (-1)
  and outs = Array.make (max !total_out 1) (-1) in
  let empty_ring = Ring.create ~stride:1 2 in
  let ring = Array.make n empty_ring in
  let gen_table = Array.make n [||] in
  let g_done = Array.make n false in
  let ib = ref 0 and ob = ref 0 in
  let gens = ref 0 in
  let chan_at (a : int array) k = if k < Array.length a then a.(k) else -1 in
  let i0 = Array.make n (-1) and i1 = Array.make n (-1) and o0 = Array.make n (-1) in
  for slot = 0 to n - 1 do
    let node = Graph.node g order.(slot) in
    in_base.(slot) <- !ib;
    in_n.(slot) <- Array.length node.Graph.inputs;
    Array.iteri (fun k cid -> ins.(!ib + k) <- cid) node.Graph.inputs;
    ib := !ib + in_n.(slot);
    out_base.(slot) <- !ob;
    out_n.(slot) <- Array.length node.Graph.outputs;
    Array.iteri (fun k cid -> outs.(!ob + k) <- cid) node.Graph.outputs;
    ob := !ob + out_n.(slot);
    i0.(slot) <- chan_at node.Graph.inputs 0;
    i1.(slot) <- chan_at node.Graph.inputs 1;
    o0.(slot) <- chan_at node.Graph.outputs 0;
    match node.Graph.kind with
    | Gen spec ->
        op.(slot) <- op_gen;
        gen_table.(slot) <- spec.gen_fill ();
        incr gens
    | Const c ->
        op.(slot) <- op_const;
        p1.(slot) <- c
    | Unop u ->
        op.(slot) <- op_unop;
        p1.(slot) <- unop_code u
    | Binop b ->
        let lat = default_latency b in
        if lat > 0 then begin
          (* an entry occupies the pipe for latency+1 cycles (entering at
             the eval of its acceptance, draining the eval its ready cycle
             is reached), so II=1 needs latency+1 records *)
          op.(slot) <- op_pipe;
          p1.(slot) <- binop_code b;
          p2.(slot) <- lat;
          ring.(slot) <- Ring.create ~stride:3 (lat + 1)
        end
        else begin
          op.(slot) <- op_binop;
          p1.(slot) <- binop_code b
        end
    | Fork k ->
        op.(slot) <- op_fork;
        p1.(slot) <- k
    | Join k ->
        op.(slot) <- op_join;
        p1.(slot) <- k
    | Merge k ->
        op.(slot) <- op_merge;
        p1.(slot) <- k
    | Mux k ->
        op.(slot) <- op_mux;
        p1.(slot) <- k
    | Branch -> op.(slot) <- op_branch
    | Buffer { transparent; slots } ->
        op.(slot) <- (if transparent then op_tbuf else op_obuf);
        p1.(slot) <- slots;
        ring.(slot) <- Ring.create ~stride:3 slots
    | Sink -> op.(slot) <- op_sink
    | Load { port } ->
        op.(slot) <- op_load;
        p1.(slot) <- port;
        (* outstanding requests: room for a full 32-entry load queue up
           front, so the ring does not grow mid-run behind a slow LSQ *)
        ring.(slot) <- Ring.create ~stride:1 32
    | Store { port } ->
        op.(slot) <- op_store;
        p1.(slot) <- port;
        ring.(slot) <- Ring.create ~stride:2 store_pending_cap
    | Skip { port } ->
        op.(slot) <- op_skip;
        p1.(slot) <- port
    | Galloc { group } ->
        op.(slot) <- op_galloc;
        p1.(slot) <- group
  done;
  let chan_src = Array.make (max nc 1) 0 and chan_dst = Array.make (max nc 1) 0 in
  for cid = 0 to nc - 1 do
    let c = Graph.chan g cid in
    chan_src.(cid) <- slot_of.(c.Graph.src.Graph.node);
    chan_dst.(cid) <- slot_of.(c.Graph.dst.Graph.node)
  done;
  let nwords = (n + 31) lsr 5 in
  if Pv_obs.Prof.enabled prof then begin
    let label nid = (Graph.node g nid).Graph.label in
    Pv_obs.Prof.set_nodes prof
      (Array.init n (fun nid ->
           (kind_name (Graph.node g nid).Graph.kind, label nid)));
    Pv_obs.Prof.set_chans prof
      (Array.init nc (fun cid ->
           let c = Graph.chan g cid in
           (label c.Graph.src.Graph.node, label c.Graph.dst.Graph.node)))
  end;
  let t =
    {
      g;
      cfg;
      mem;
      n;
      nc;
      cur_key = Array.make (max nc 1) Token.none;
      cur_val = Array.make (max nc 1) 0;
      stall_until = Array.make (max nc 1) 0;
      chan_src;
      chan_dst;
      nid_of = order;
      slot_of;
      op;
      p1;
      p2;
      in_base;
      in_n;
      out_base;
      out_n;
      ins;
      outs;
      i0;
      i1;
      o0;
      ring;
      gen_table;
      g_seq = Array.make n 0;
      g_done;
      g_emitted = Array.make n 0;
      fires = Array.make n 0;
      faults =
        List.sort (fun (a : Fault.event) b -> compare a.Fault.at_cycle b.Fault.at_cycle)
          cfg.faults
        |> List.map (fun e ->
               { fs_event = e; fs_fired = None; fs_dead = false; fs_note = "" })
        |> Array.of_list;
      awake = Array.make (max nwords 1) 0;
      wave = Array.make (max nwords 1) 0;
      wheel = Wheel.create ();
      wake_cb = ignore;
      dense = cfg.engine = Scan;
      bookkeep = cfg.engine = Event;
      nfired = 0;
      occupied = 0;
      held = 0;
      gens_active = !gens;
      lslot = Memif.fresh_slot ();
      evals = 0;
      epoch = 0;
      cycle = 0;
      last_progress = 0;
      trace;
      epoch_start = 0;
      last_inflight = -1;
      prof;
      prof_on = Pv_obs.Prof.enabled prof;
      prof_held = Pv_obs.Prof.chan_held prof;
    }
  in
  t.wake_cb <- (fun slot -> wake t slot);
  wake_all t;
  t

(* --- channel helpers ---------------------------------------------------- *)

(* A token is present and consumable this cycle. *)
let[@inline] in_ready t cid =
  ag t.cur_key cid >= 0 && ag t.stall_until cid <= t.cycle

(* Consume the input token (caller checked [in_ready]).  Clears the key, so
   a caller reads it first; the value stays readable in [cur_val].  The
   empty key is written as the literal -1 ([Token.none]): under [-opaque]
   the named constant is two loads through the [Types] module block.
   [take], [put] and [fire] leave [last_progress] alone: every take and
   put of [eval_slot] sits in a branch that fires, and [step] reads the
   cycle's fire count instead. *)
let[@inline] take t cid =
  aset t.cur_key cid (-1);
  t.occupied <- t.occupied - 1;
  (* the freed register is visible to its producer this very cycle: pull
     the producer into the current wave (its slot is always later) *)
  if t.bookkeep then bs_set t.wave (ag t.chan_src cid)

(* An output register can accept a new token: it is empty, or its token
   was taken earlier this cycle. *)
let[@inline] out_free t cid = ag t.cur_key cid < 0

(* Fill an output register; its consumer, which already ran this cycle,
   wakes for the next one. *)
let[@inline] put t cid ~key ~value =
  assert (ag t.cur_key cid < 0);
  aset t.cur_key cid key;
  aset t.cur_val cid value;
  t.occupied <- t.occupied + 1;
  if t.bookkeep then bs_set t.awake (ag t.chan_dst cid)

(* Loop helpers as tail recursions: a [for] body cannot early-exit and a
   [ref] accumulator would allocate, which the hot loop must not. *)
let rec outs_free_from t b i n =
  i >= n || (out_free t (ag t.outs (b + i)) && outs_free_from t b (i + 1) n)

(* Every output free; the two-output case (a two-way fork, a one-loop
   generator) skips the recursive call. *)
let[@inline] outs_free t b n =
  if n = 2 then out_free t (ag t.outs b) && out_free t (ag t.outs (b + 1))
  else outs_free_from t b 0 n

let rec ins_ready t b i n =
  i >= n || (in_ready t (ag t.ins (b + i)) && ins_ready t b (i + 1) n)

let rec first_ready t b i n =
  if i >= n then -1
  else if in_ready t (ag t.ins (b + i)) then i
  else first_ready t b (i + 1) n

let rec max_in_field t (arr : int array) b i n acc =
  if i >= n then acc
  else
    let v = ag arr (ag t.ins (b + i)) in
    max_in_field t arr b (i + 1) n (if v > acc then v else acc)

let rec take_all t b i n =
  if i < n then begin
    take t (ag t.ins (b + i));
    take_all t b (i + 1) n
  end

let[@inline] imax (a : int) (b : int) = if a >= b then a else b

let[@inline] fire t slot =
  aset t.fires slot (ag t.fires slot + 1);
  t.nfired <- t.nfired + 1

(* Operator evaluation by dense code ({!Types.binop_code},
   {!Types.unop_code}); must mirror [Types.eval_binop]/[eval_unop] case
   for case (test_dataflow checks the whole table).  Here rather than in
   [Types] so that the arms below inline them. *)
let[@inline] eval_binop_code code a b =
  match code with
  | 0 -> a + b
  | 1 -> a - b
  | 2 | 3 -> a * b
  | 4 -> if b = 0 then 0 else a / b
  | 5 -> if b = 0 then 0 else a mod b
  | 6 -> a land b
  | 7 -> a lor b
  | 8 -> a lxor b
  | 9 -> a lsl (b land 62)
  | 10 -> a asr (b land 62)
  | 11 -> if a < b then 1 else 0
  | 12 -> if a <= b then 1 else 0
  | 13 -> if a > b then 1 else 0
  | 14 -> if a >= b then 1 else 0
  | 15 -> if a = b then 1 else 0
  | 16 -> if a <> b then 1 else 0
  | 17 -> if a <= b then a else b
  | 18 -> if a >= b then a else b
  | _ -> invalid_arg "eval_binop_code"

let[@inline] eval_unop_code code a =
  match code with
  | 0 -> -a
  | 1 -> if a = 0 then 1 else 0
  | 2 -> lnot a
  | _ -> invalid_arg "eval_unop_code"

(* --- node evaluation ---------------------------------------------------- *)

(* Buffer emission of the head record: at most one per cycle.  An opaque
   buffer holds a record for a cycle (a timing-breaking register); a
   transparent one emits whatever it holds. *)
let[@inline] buf_try_emit t r co ~transparent =
  rlen r > 0
  && (transparent || rhead r 2 < t.cycle)
  && out_free t co
  && begin
       put t co ~key:(rhead r 0) ~value:(rhead r 1);
       rpop r;
       t.held <- t.held - 1;
       true
     end

(* Buffer acceptance into the ring (record: key, value, arrival cycle). *)
let[@inline] buf_try_accept t r ci slot =
  in_ready t ci
  && rlen r < ag t.p1 slot
  && begin
       rpush3 r (ag t.cur_key ci) (ag t.cur_val ci) t.cycle;
       take t ci;
       t.held <- t.held + 1;
       true
     end

(* Wake-set invariant (the [t.bookkeep && …] tails below): after its
   evaluation, a node may sleep unless it still holds work that could fire
   with NO further channel event.  That is: a refused backend call (the
   refusal clears on a backend-internal transition the simulator cannot
   observe, so it is retried every cycle); a pipe or buffer record that
   the mere passage of time makes drainable, which needs a free output
   register; a pipe that drained this cycle, since its accept ran before
   the drain and a pending input may now fit; an unexhausted generator
   with free outputs, racing the backend for allocation; and an
   outstanding load response with a free output, which must be polled.
   A node blocked on a full output sleeps: only a drain of that output
   can unblock it, and the drain pulls it into the same cycle's wave
   ([take]).  Everything else is re-woken by a [put] on one of its
   inputs, squash wake-alls, or fault wakes.  The stay-awake decision is
   folded into each dispatch arm so the sweep needs no second dispatch. *)
let[@inline] pending t cid = cid >= 0 && ag t.cur_key cid >= 0

(* Inlined into each of its callers (the dense pass, the sparse [sweep]
   and [eval_profiled]), so each loop runs its own copy of the dispatch
   with no call per evaluation (DESIGN.md §19). *)
let[@inline] eval_slot t slot =
  match ag t.op slot with
  | 0 (* Gen *) ->
      if not (agb t.g_done slot) then begin
        let ob = ag t.out_base slot and on = ag t.out_n slot in
        if outs_free t ob on then begin
          let seq = ag t.g_seq slot in
          let table = Array.unsafe_get t.gen_table slot in
          let row = seq * on in
          if row >= Array.length table then begin
            asetb t.g_done slot true;
            t.gens_active <- t.gens_active - 1
          end
          else if t.mem.Memif.begin_instance ~seq ~group:table.(row) then begin
            let key = Token.unsafe ~seq ~epoch:t.epoch in
            for i = 0 to on - 1 do
              put t (ag t.outs (ob + i)) ~key ~value:table.(row + i)
            done;
            aset t.g_seq slot (seq + 1);
            aset t.g_emitted slot (ag t.g_emitted slot + 1);
            fire t slot
          end
          else begin
            let s = t.mem.Memif.stats () in
            s.Memif.stall_alloc <- s.Memif.stall_alloc + 1
          end
        end;
        if t.bookkeep && (not (agb t.g_done slot)) && outs_free t ob on then
          bs_set t.awake slot
      end
  | 1 (* Const *) ->
      let ci = ag t.i0 slot in
      if in_ready t ci then begin
        let co = ag t.o0 slot in
        if out_free t co then begin
          let k = ag t.cur_key ci in
          take t ci;
          put t co ~key:k ~value:(ag t.p1 slot);
          fire t slot
        end
      end
  | 2 (* Unop *) ->
      let ci = ag t.i0 slot in
      if in_ready t ci then begin
        let co = ag t.o0 slot in
        if out_free t co then begin
          let k = ag t.cur_key ci in
          take t ci;
          put t co ~key:k
            ~value:(eval_unop_code (ag t.p1 slot) (ag t.cur_val ci));
          fire t slot
        end
      end
  | 3 (* Binop, combinational *) ->
      let ca = ag t.i0 slot and cb = ag t.i1 slot in
      if in_ready t ca && in_ready t cb then begin
        let co = ag t.o0 slot in
        if out_free t co then begin
          (* packed keys order lexicographically by (seq, epoch), so one
             int max replaces the two per-field maxes of the boxed era *)
          let k = imax (ag t.cur_key ca) (ag t.cur_key cb) in
          take t ca;
          take t cb;
          put t co ~key:k
            ~value:
              (eval_binop_code (ag t.p1 slot) (ag t.cur_val ca)
                 (ag t.cur_val cb));
          fire t slot
        end
      end
  | 4 (* Binop, pipelined *) ->
      let ca = ag t.i0 slot and cb = ag t.i1 slot in
      let r = Array.unsafe_get t.ring slot in
      let co = ag t.o0 slot in
      let accepted =
        in_ready t ca
        && in_ready t cb
        && rlen r < ag t.p2 slot + 1
        && begin
             let k = imax (ag t.cur_key ca) (ag t.cur_key cb) in
             take t ca;
             take t cb;
             rpush3 r
               (t.cycle + ag t.p2 slot)
               k
               (eval_binop_code (ag t.p1 slot) (ag t.cur_val ca)
                  (ag t.cur_val cb));
             t.held <- t.held + 1;
             true
           end
      in
      (* drain a completed pipelined result *)
      let drained =
        rlen r > 0
        && rhead r 0 <= t.cycle
        && out_free t co
        && begin
             put t co ~key:(rhead r 1) ~value:(rhead r 2);
             rpop r;
             t.held <- t.held - 1;
             true
           end
      in
      if accepted || drained then fire t slot;
      if t.bookkeep && rlen r > 0 && (drained || out_free t co) then
        bs_set t.awake slot
  | 5 (* Fork *) ->
      let ci = ag t.i0 slot in
      if in_ready t ci then begin
        let ob = ag t.out_base slot and on = ag t.out_n slot in
        if outs_free t ob on then begin
          let k = ag t.cur_key ci and v = ag t.cur_val ci in
          take t ci;
          for i = 0 to on - 1 do
            put t (ag t.outs (ob + i)) ~key:k ~value:v
          done;
          fire t slot
        end
      end
  | 6 (* Join *) ->
      let b = ag t.in_base slot and n = ag t.in_n slot in
      if ins_ready t b 0 n then begin
        let co = ag t.o0 slot in
        if out_free t co then begin
          (* forwards input 0's value under the max packed key *)
          let v = ag t.cur_val (ag t.i0 slot) in
          let k = max_in_field t t.cur_key b 0 n 0 in
          take_all t b 0 n;
          put t co ~key:k ~value:v;
          fire t slot
        end
      end
  | 7 (* Merge *) ->
      let co = ag t.o0 slot in
      if out_free t co then begin
        let b = ag t.in_base slot in
        let chosen = first_ready t b 0 (ag t.in_n slot) in
        if chosen >= 0 then begin
          let ci = ag t.ins (b + chosen) in
          let k = ag t.cur_key ci in
          take t ci;
          put t co ~key:k ~value:(ag t.cur_val ci);
          fire t slot
        end
      end
  | 8 (* Mux *) ->
      let sel = ag t.i0 slot in
      if in_ready t sel then begin
        let k = ag t.cur_val sel in
        if k >= 0 && k < ag t.p1 slot then begin
          let d = ag t.ins (ag t.in_base slot + 1 + k) in
          if in_ready t d then begin
            let co = ag t.o0 slot in
            if out_free t co then begin
              let key = ag t.cur_key d in
              take t sel;
              take t d;
              put t co ~key ~value:(ag t.cur_val d);
              fire t slot
            end
          end
        end
      end
  | 9 (* Branch *) ->
      let d = ag t.i0 slot and c = ag t.i1 slot in
      if in_ready t d && in_ready t c then begin
        let out = if ag t.cur_val c <> 0 then 0 else 1 in
        let co = ag t.outs (ag t.out_base slot + out) in
        if out_free t co then begin
          let k = ag t.cur_key d in
          take t d;
          take t c;
          put t co ~key:k ~value:(ag t.cur_val d);
          fire t slot
        end
      end
  | 10 (* Buffer, transparent *) ->
      (* it costs one stage like any other node and only adds capacity: an
         empty buffer passes a token on in the cycle it accepts it, register
         to register, and queues it only behind a busy output.  A holding
         buffer emits its head before it accepts, so the order is kept.  It
         never stays awake: after its evaluation its output is full or its
         ring is empty *)
      let r = Array.unsafe_get t.ring slot in
      let ci = ag t.i0 slot in
      let co = ag t.o0 slot in
      if rlen r = 0 then begin
        if in_ready t ci then begin
          let k = ag t.cur_key ci in
          take t ci;
          if out_free t co then put t co ~key:k ~value:(ag t.cur_val ci)
          else begin
            rpush3 r k (ag t.cur_val ci) t.cycle;
            t.held <- t.held + 1
          end;
          fire t slot
        end
      end
      else begin
        let emitted = buf_try_emit t r co ~transparent:true in
        if buf_try_accept t r ci slot || emitted then fire t slot
      end
  | 11 (* Buffer, opaque *) ->
      let r = Array.unsafe_get t.ring slot in
      let co = ag t.o0 slot in
      let emitted = buf_try_emit t r co ~transparent:false in
      let ci = ag t.i0 slot in
      if buf_try_accept t r ci slot || emitted then fire t slot;
      (* still awake only for a head that arrived this cycle *)
      if t.bookkeep && rlen r > 0 && out_free t co then bs_set t.awake slot
  | 12 (* Sink *) ->
      let ci = ag t.i0 slot in
      if in_ready t ci then begin
        take t ci;
        fire t slot
      end
  | 13 (* Load *) ->
      (* deliver a completed response *)
      let co = ag t.o0 slot in
      let r = Array.unsafe_get t.ring slot in
      let delivered =
        out_free t co
        (* every response answers a request this port presented, so it
           polls only while its mirror holds one: a sleeping Load relies
           on the mirror to know when to poll, and a fault that loses the
           request leaves the response undelivered, a diagnosed hang *)
        && rlen r > 0
        && t.mem.Memif.load_poll ~port:(ag t.p1 slot) t.lslot
        && begin
             rpop r;
             (* re-stamp the delivery epoch: the response carries the
                request's key, but the token enters the circuit under the
                CURRENT epoch, as the boxed representation did *)
             put t co
               ~key:(Token.with_epoch t.lslot.Memif.ls_key ~epoch:t.epoch)
               ~value:t.lslot.Memif.ls_value;
             true
           end
      in
      (* present a new request *)
      let ci = ag t.i0 slot in
      let requested =
        in_ready t ci
        && t.mem.Memif.load_req ~port:(ag t.p1 slot) ~key:(ag t.cur_key ci)
             ~addr:(ag t.cur_val ci)
        && begin
             Ring.push1 r (ag t.cur_key ci);
             take t ci;
             true
           end
      in
      if delivered || requested then fire t slot;
      if t.bookkeep && (pending t ci || (rlen r > 0 && out_free t co))
      then bs_set t.awake slot
  | 14 (* Store *) ->
      (* the address side is decoupled from the data side, as in a real
         store port: addresses are taken and announced to the backend as
         soon as they are computed, letting the LSQ resolve ordering
         without waiting for the data *)
      let r = Array.unsafe_get t.ring slot in
      let ca = ag t.i0 slot and cd = ag t.i1 slot in
      let addr_done =
        in_ready t ca
        && rlen r < store_pending_cap
        && begin
             let key = ag t.cur_key ca and addr = ag t.cur_val ca in
             take t ca;
             t.mem.Memif.store_addr ~port:(ag t.p1 slot) ~key ~addr;
             Ring.push2 r key addr;
             t.held <- t.held + 1;
             true
           end
      in
      let data_done =
        in_ready t cd
        && rlen r > 0
        (* compare seqs, not whole keys: the addr and data tokens of one
           instance may legitimately carry different epochs.  Data of
           another instance (a fault mis-paired the streams) is refused,
           so the port hangs with both seqs in its post-mortem *)
        && Token.seq (rhead r 0) = Token.seq (ag t.cur_key cd)
        && begin
             let key = rhead r 0 and addr = rhead r 1 in
             t.mem.Memif.store_req ~port:(ag t.p1 slot) ~key ~addr
               ~value:(ag t.cur_val cd)
             && begin
                  rpop r;
                  t.held <- t.held - 1;
                  take t cd;
                  true
                end
           end
      in
      if addr_done || data_done then fire t slot;
      if t.bookkeep && (pending t ca || pending t cd) then bs_set t.awake slot
  | 15 (* Skip *) ->
      let ci = ag t.i0 slot in
      if
        in_ready t ci
        && t.mem.Memif.op_skip ~port:(ag t.p1 slot) ~key:(ag t.cur_key ci)
      then begin
        take t ci;
        fire t slot
      end;
      if t.bookkeep && pending t ci then bs_set t.awake slot
  | _ (* Galloc *) ->
      let ci = ag t.i0 slot in
      if
        in_ready t ci
        && t.mem.Memif.alloc_group ~key:(ag t.cur_key ci) ~group:(ag t.p1 slot)
      then begin
        take t ci;
        fire t slot
      end;
      if t.bookkeep && pending t ci then bs_set t.awake slot

(* --- squash ------------------------------------------------------------- *)

(* Purge every in-flight token with [seq >= seq_err]: channel registers by
   direct clear, ring-held records by in-place order-preserving compaction
   ({!Ring.reject_ge}) — no scratch queue is ever allocated.  The cutoff is
   a packed key: [key >= Token.first ~seq:seq_err] iff [seq key >= seq_err]
   for every real key, and the empty-register sentinel (-1) never clears. *)
let purge t ~seq_err =
  t.epoch <- t.epoch + 1;
  let cut = Token.first ~seq:seq_err in
  for cid = 0 to t.nc - 1 do
    if t.cur_key.(cid) >= cut then begin
      t.cur_key.(cid) <- Token.none;
      t.occupied <- t.occupied - 1
    end
  done;
  for slot = 0 to t.n - 1 do
    match t.op.(slot) with
    | 0 (* Gen *) ->
        if t.g_seq.(slot) > seq_err then t.g_seq.(slot) <- seq_err;
        if t.g_done.(slot) then begin
          t.g_done.(slot) <- false;
          t.gens_active <- t.gens_active + 1
        end
    | 4 (* pipe: key is field 1 *) ->
        t.held <- t.held - Ring.reject_ge t.ring.(slot) ~field:1 ~cutoff:cut
    | 10 | 11 | 14 (* buffers / pending stores: key is field 0 *) ->
        t.held <- t.held - Ring.reject_ge t.ring.(slot) ~field:0 ~cutoff:cut
    | 13 (* load responses: mirrors the backend's own purge cutoff
            (see Memif.poll_squash) so sleeping Loads never poll a dead
            response; not counted in [held] *) ->
        ignore (Ring.reject_ge t.ring.(slot) ~field:0 ~cutoff:cut : int)
    | _ -> ()
  done

(* --- fault injection ---------------------------------------------------- *)

(* Apply every armed fault event that is due and applicable this cycle.
   Runs at the very top of [step], BEFORE the squash poll: a detected
   fault ([*_replay]) both disturbs the token and raises the squash, so
   the purge that follows in the same step erases the corrupted token
   before any node can observe it — exactly the one-cycle detection a
   parity-checked elastic channel would give. *)
let apply_faults t =
  let any_fired = ref false in
  let tok_of chan : token = (t.cur_key.(chan), t.cur_val.(chan)) in
  Array.iter
    (fun fs ->
      if fs.fs_fired = None && (not fs.fs_dead)
         && t.cycle >= fs.fs_event.Fault.at_cycle
      then
        let fired ?(note = "") () =
          fs.fs_fired <- Some t.cycle;
          fs.fs_note <- note;
          any_fired := true;
          Pv_obs.Trace.instant t.trace ~tid:Pv_obs.Trace.tid_fault ~ts:t.cycle
            ("fault: " ^ Fault.string_of_event fs.fs_event)
        in
        match fs.fs_event.Fault.action with
        | Fault.Drop { chan } ->
            if t.cur_key.(chan) >= 0 then begin
              let note = Format.asprintf "lost %a" pp_token (tok_of chan) in
              t.cur_key.(chan) <- Token.none;
              t.occupied <- t.occupied - 1;
              fired ~note ()
            end
        | Fault.Drop_replay { chan } ->
            if t.cur_key.(chan) >= 0
               && t.mem.Memif.inject
                    (Fault.B_squash { seq = Token.seq t.cur_key.(chan) })
            then begin
              (* else: a pre-commit-frontier remnant; retry on a younger
                 token *)
              let note =
                Format.asprintf "lost %a, squash raised" pp_token (tok_of chan)
              in
              t.cur_key.(chan) <- Token.none;
              t.occupied <- t.occupied - 1;
              fired ~note ()
            end
        | Fault.Stall { chan; cycles } ->
            t.stall_until.(chan) <- imax t.stall_until.(chan) (t.cycle + cycles);
            (* the frozen token can only move again when the stall expires
               — a timed event no [put] announces.  Armed in either
               regime: the engine may be sparse by then *)
            Wheel.add t.wheel ~at:t.stall_until.(chan) t.chan_dst.(chan);
            fired ()
        | Fault.Flip { chan; mask } ->
            if t.cur_key.(chan) >= 0 then begin
              let note = Format.asprintf "corrupted %a" pp_token (tok_of chan) in
              t.cur_val.(chan) <- t.cur_val.(chan) lxor mask;
              fired ~note ()
            end
        | Fault.Flip_replay { chan; mask } ->
            if t.cur_key.(chan) >= 0
               && t.mem.Memif.inject
                    (Fault.B_squash { seq = Token.seq t.cur_key.(chan) })
            then begin
              let note =
                Format.asprintf "corrupted %a, squash raised" pp_token
                  (tok_of chan)
              in
              t.cur_val.(chan) <- t.cur_val.(chan) lxor mask;
              fired ~note ()
            end
        | Fault.Backend b ->
            if t.mem.Memif.inject b then fired ()
            else (
              match b with
              | Fault.B_squash _ ->
                  (* the frontier only advances: a stale squash point stays
                     stale, so stop retrying *)
                  fs.fs_dead <- true;
                  fs.fs_note <- "squash point already committed"
              | Fault.B_pq_flip _ | Fault.B_pq_drop _ -> ()))
    t.faults;
  (* a disturbance invalidates the wake set wholesale; faults are rare, so
     one conservative wake-all per firing is cheaper than per-case proofs
     (the dense regime rebuilds the set on exit anyway) *)
  if !any_fired && t.bookkeep then wake_all t

let fault_log t : Fault.application list =
  Array.to_list t.faults
  |> List.map (fun fs ->
         {
           Fault.ap_event = fs.fs_event;
           ap_fired_at = fs.fs_fired;
           ap_note = fs.fs_note;
         })

(* --- stall classification ----------------------------------------------- *)

(* Why a slot holds work it cannot fire, as a [Prof] reason code, or -1
   when it simply has no work (an idle wake, not a stall).  Allocation-free:
   the profiler calls it after every evaluation that did not fire, and the
   post-mortem classifies each wedged node with it. *)

let rec any_pending_in t slot k n =
  k < n
  && (pending t (ag t.ins (ag t.in_base slot + k))
     || any_pending_in t slot (k + 1) n)

let rec any_frozen_in t slot k n =
  if k >= n then false
  else
    let cid = ag t.ins (ag t.in_base slot + k) in
    (cid >= 0 && ag t.cur_key cid >= 0 && ag t.stall_until cid > t.cycle)
    || any_frozen_in t slot (k + 1) n

let rec any_empty_in t slot k n =
  if k >= n then false
  else
    let cid = ag t.ins (ag t.in_base slot + k) in
    (cid >= 0 && ag t.cur_key cid < 0) || any_empty_in t slot (k + 1) n

let stall_reason t slot =
  let opc = ag t.op slot in
  if opc = op_gen then
    if agb t.g_done slot then -1
    else if not (outs_free t (ag t.out_base slot) (ag t.out_n slot)) then
      Pv_obs.Prof.reason_backpressured
    else Pv_obs.Prof.reason_refused
  else begin
    let n_in = ag t.in_n slot in
    let internal =
      (opc = op_pipe || opc = op_tbuf || opc = op_obuf || opc = op_store)
      && Ring.length t.ring.(slot) > 0
    in
    let any_in = any_pending_in t slot 0 n_in in
    if not (any_in || internal) then -1
    else if any_frozen_in t slot 0 n_in then Pv_obs.Prof.reason_frozen
    else if internal then Pv_obs.Prof.reason_internal
    else if opc <> op_merge && any_empty_in t slot 0 n_in then
      Pv_obs.Prof.reason_starved
    else if not (outs_free t (ag t.out_base slot) (ag t.out_n slot)) then
      Pv_obs.Prof.reason_backpressured
    else if
      opc = op_load || opc = op_store || opc = op_skip || opc = op_galloc
    then Pv_obs.Prof.reason_refused
    else Pv_obs.Prof.reason_other
  end

(* --- post-mortem -------------------------------------------------------- *)

(* A store port whose data input holds another instance than its pending
   address: only a fault mis-pairs the two streams, and the port refuses
   the data. *)
let mispaired_store t slot =
  t.op.(slot) = op_store
  && Ring.length t.ring.(slot) > 0
  &&
  let cd = t.ins.(t.in_base.(slot) + 1) in
  cd >= 0
  && t.cur_key.(cd) >= 0
  && Token.seq t.cur_key.(cd) <> Token.seq (Ring.get t.ring.(slot) 0 0)

(* The post-mortem's text for a slot's [stall_reason]: the first frozen or
   empty input, the first full output, or the stuck ring's count. *)
let stall_detail t slot reason =
  let ins = Array.sub t.ins t.in_base.(slot) t.in_n.(slot)
  and outs = Array.sub t.outs t.out_base.(slot) t.out_n.(slot) in
  let full c = c >= 0 && t.cur_key.(c) >= 0 in
  let first p a = Option.get (Array.find_index p a) in
  let opc = t.op.(slot) and r = t.ring.(slot) in
  if reason = Pv_obs.Prof.reason_frozen then
    Printf.sprintf "input chan %d frozen by injected stall"
      ins.(first (fun c -> full c && t.stall_until.(c) > t.cycle) ins)
  else if reason = Pv_obs.Prof.reason_internal then
    if opc = op_pipe then
      Printf.sprintf "%d result(s) stuck in FU pipeline" (Ring.length r)
    else if mispaired_store t slot then
      Printf.sprintf "store port %d: pending addr seq=%d but data seq=%d"
        t.p1.(slot)
        (Token.seq (Ring.get r 0 0))
        (Token.seq t.cur_key.(ins.(1)))
    else if opc = op_store then
      Printf.sprintf
        "%d announced store(s) awaiting data (head: seq=%d addr=%d)"
        (Ring.length r)
        (Token.seq (Ring.get r 0 0))
        (Ring.get r 0 1)
    else Printf.sprintf "%d token(s) stuck in buffer" (Ring.length r)
  else if reason = Pv_obs.Prof.reason_starved then
    let k = first (fun c -> c >= 0 && not (full c)) ins in
    Printf.sprintf "starved: input slot %d (chan %d) empty" k ins.(k)
  else if reason = Pv_obs.Prof.reason_backpressured then
    Printf.sprintf "%s: output chan %d occupied"
      (if opc = op_gen then "generator blocked" else "backpressured")
      outs.(first full outs)
  else if reason = Pv_obs.Prof.reason_refused then
    if opc = op_gen then "generator blocked: allocation refused by backend"
    else "inputs ready but refused by memory backend"
  else "inputs ready, output free"

(** Snapshot the diagnosis state; attached to [Deadlock]/[Timeout] so a hung
    run explains itself without a debugger. *)
let post_mortem t : post_mortem =
  let tokens = ref [] in
  for cid = t.nc - 1 downto 0 do
    if t.cur_key.(cid) >= 0 then
      tokens := (cid, (t.cur_key.(cid), t.cur_val.(cid))) :: !tokens
  done;
  let oldest = ref None in
  let note_seq s =
    match !oldest with
    | None -> oldest := Some s
    | Some o -> if s < o then oldest := Some s
  in
  List.iter (fun (_, (key, _)) -> note_seq (Token.seq key)) !tokens;
  for slot = 0 to t.n - 1 do
    let r = t.ring.(slot) in
    match t.op.(slot) with
    | 4 -> Ring.iter (fun i -> note_seq (Token.seq (Ring.get r i 1))) r
    | 10 | 11 | 14 -> Ring.iter (fun i -> note_seq (Token.seq (Ring.get r i 0))) r
    | _ -> ()
  done;
  (* Rank the stalled nodes so that the node a hang is rooted at survives
     the cap: a mis-paired store port (the fault's victim) first, then
     nodes stuck for a reason of their own (refused, frozen, internal),
     then nodes that only wait on a neighbour (backpressured, starved).
     Node-id order within a rank. *)
  let rank slot reason =
    if reason = Pv_obs.Prof.reason_internal && mispaired_store t slot then 0
    else if
      reason = Pv_obs.Prof.reason_backpressured
      || reason = Pv_obs.Prof.reason_starved
    then 2
    else 1
  in
  let stalled = ref [] and gens = ref [] in
  for nid = t.n - 1 downto 0 do
    let slot = t.slot_of.(nid) in
    if t.op.(slot) = op_gen then
      gens := (nid, t.g_seq.(slot), t.g_done.(slot)) :: !gens;
    let reason = stall_reason t slot in
    if reason >= 0 then
      stalled :=
        ( rank slot reason,
          (nid, (Graph.node t.g nid).Graph.label, stall_detail t slot reason) )
        :: !stalled
  done;
  let stalled = List.stable_sort (fun (a, _) (b, _) -> compare a b) !stalled in
  {
    pm_at_cycle = t.cycle;
    pm_last_progress = t.last_progress;
    pm_epoch = t.epoch;
    pm_occupied = List.length !tokens;
    pm_tokens = List.filteri (fun i _ -> i < 16) !tokens;
    pm_oldest_seq = !oldest;
    pm_stalled = List.filteri (fun i _ -> i < 16) (List.map snd stalled);
    pm_stalled_total = List.length stalled;
    pm_gens = !gens;
    pm_fault_stalls =
      List.filter
        (fun cid -> t.stall_until.(cid) > t.cycle)
        (List.init t.nc Fun.id);
    pm_backend = t.mem.Memif.describe ();
    pm_faults = fault_log t;
  }

(* --- main loop ---------------------------------------------------------- *)

(* The occupancy counters make this O(1) where the old engine re-scanned
   every channel and queue: a run is done when no generator can emit, no
   channel register holds a token, no pipe/buffer/pending-store record is
   in flight, and the backend has committed everything it accepted.
   Outstanding load responses are intentionally NOT part of the circuit-side
   condition — the backend's [quiesced] covers them, exactly as before. *)
let finished t =
  t.gens_active = 0 && t.occupied = 0 && t.held = 0 && t.mem.Memif.quiesced ()

(* Profiled evaluation: read-only around [eval_slot], so cycles, evals and
   fires are bit-identical with profiling on or off.  The fired-or-not
   verdict comes from the per-cycle [nfired] counter, which both engines
   advance on every fire. *)
let eval_profiled t slot =
  let before = t.nfired in
  eval_slot t slot;
  let nid = ag t.nid_of slot in
  Pv_obs.Prof.node_eval t.prof nid;
  if t.nfired = before then begin
    let r = stall_reason t slot in
    if r >= 0 then Pv_obs.Prof.stall t.prof nid ~reason:r
  end

(* Event-engine sweep: extract slots from the wave bitset in ascending order
   and evaluate each.  Written as a tail recursion over the word index so
   the hot loop allocates nothing (a [ref] cursor would be a heap cell).
   The current word is re-read after every eval because [take] may pull a
   producer with a slot later in the SAME word into the wave; keeping the
   pending bits in the in-memory word also dedupes a pull that targets a
   not-yet-evaluated slot. *)
let rec sweep t nw w =
  if w < nw then begin
    let bits = ag t.wave w in
    if bits = 0 then sweep t nw (w + 1)
    else begin
      let lsb = bits land -bits in
      aset t.wave w (bits lxor lsb);
      let slot = (w lsl 5) lor ctz32 lsb in
      t.evals <- t.evals + 1;
      if t.prof_on then eval_profiled t slot else eval_slot t slot;
      sweep t nw w
    end
  end

let step t =
  if Array.length t.faults > 0 then apply_faults t;
  (match t.mem.Memif.poll_squash () with
  | Some seq_err ->
      if Pv_obs.Trace.enabled t.trace then begin
        (* close the epoch span and mark the squash on the sim track *)
        Pv_obs.Trace.complete t.trace ~tid:Pv_obs.Trace.tid_sim
          ~ts:t.epoch_start
          ~dur:(max 1 (t.cycle - t.epoch_start))
          ~args:[ ("epoch", t.epoch) ]
          (Printf.sprintf "epoch %d" t.epoch);
        Pv_obs.Trace.instant t.trace ~tid:Pv_obs.Trace.tid_sim ~ts:t.cycle
          ~args:[ ("seq_err", seq_err); ("epoch", t.epoch + 1) ]
          "squash";
        t.epoch_start <- t.cycle
      end;
      purge t ~seq_err;
      (* the purge moves tokens everywhere at once; restart from a full set *)
      if t.bookkeep then wake_all t;
      t.last_progress <- t.cycle
  | None -> ());
  if Wheel.pending t.wheel > 0 then Wheel.drain t.wheel ~now:t.cycle t.wake_cb;
  if t.dense then begin
    (* high-activity regime: a full pass with [bookkeep] off; any awake
       bits raised meanwhile (wheel, faults) linger harmlessly and are
       subsumed by the wake_all on exit *)
    t.evals <- t.evals + t.n;
    if t.prof_on then
      for slot = 0 to t.n - 1 do
        eval_profiled t slot
      done
    else
      for slot = 0 to t.n - 1 do
        eval_slot t slot
      done
  end
  else begin
    (* seed the wave with the wake set (word-wise), then sweep; [take] may
       grow the wave downstream of the sweep cursor, and wakes raised
       during the sweep land in the next cycle's set *)
    let nw = Array.length t.awake in
    for w = 0 to nw - 1 do
      aset t.wave w (ag t.wave w lor ag t.awake w);
      aset t.awake w 0
    done;
    sweep t nw 0
  end;
  (* Prof's channel occupancy: a register that holds a token at the clock
     edge counts one held cycle.  A full loop, not a span per token, so
     purges and injected drops need no bookkeeping of their own *)
  if t.prof_on then
    for cid = 0 to t.nc - 1 do
      if ag t.cur_key cid >= 0 then
        aset t.prof_held cid (ag t.prof_held cid + 1)
    done;
  (* density hysteresis: enter the dense regime when >= 1/2 of the nodes
     fired this cycle, leave it (under [Event] only: [Scan] pins it) when
     activity drops below 7/20.  An idle evaluation costs a handful of ns
     while the sparse mode's per-active-node bookkeeping (put wakes,
     take pulls, sweep extraction) costs several times that, so the
     measured crossover sits near 50% activity — the sparse sweep must
     only run when most nodes are asleep.  The exit rebuilds the wake set
     wholesale because none was maintained while dense. *)
  (if t.dense then begin
     if t.nfired * 20 < 7 * t.n && t.cfg.engine = Event then begin
       t.dense <- false;
       t.bookkeep <- true;
       wake_all t
     end
   end
   else if t.nfired * 2 >= t.n then begin
     t.dense <- true;
     t.bookkeep <- false
   end);
  (* every token movement of the sweep is part of a fire *)
  if t.nfired > 0 then t.last_progress <- t.cycle;
  t.nfired <- 0;
  t.mem.Memif.clock ();
  if Pv_obs.Trace.enabled t.trace then begin
    (* in-flight token counter track, sampled on change only *)
    let inflight = ref t.occupied in
    for slot = 0 to t.n - 1 do
      let opc = t.op.(slot) in
      if opc = op_pipe || opc = op_tbuf || opc = op_obuf then
        inflight := !inflight + Ring.length t.ring.(slot)
    done;
    if !inflight <> t.last_inflight then begin
      Pv_obs.Trace.counter t.trace ~tid:Pv_obs.Trace.tid_sim ~ts:t.cycle
        "in_flight_tokens" !inflight;
      t.last_inflight <- !inflight
    end
  end;
  t.cycle <- t.cycle + 1

(* Close the observability story of a run: final epoch span, outcome
   instant, and (for a wedged run) one stall-reason instant per blocked
   node so the trace explains the hang the way the post-mortem does. *)
let trace_outcome t outcome =
  if Pv_obs.Trace.enabled t.trace then begin
    Pv_obs.Trace.complete t.trace ~tid:Pv_obs.Trace.tid_sim ~ts:t.epoch_start
      ~dur:(max 1 (t.cycle - t.epoch_start))
      ~args:[ ("epoch", t.epoch) ]
      (Printf.sprintf "epoch %d" t.epoch);
    match outcome with
    | Finished { cycles } ->
        Pv_obs.Trace.instant t.trace ~tid:Pv_obs.Trace.tid_sim ~ts:cycles
          (outcome_name outcome)
    | Deadlock { at_cycle; post_mortem = pm }
    | Timeout { at_cycle; post_mortem = pm } ->
        Pv_obs.Trace.instant t.trace ~tid:Pv_obs.Trace.tid_sim ~ts:at_cycle
          ~args:[ ("last_progress", pm.pm_last_progress) ]
          (outcome_name outcome);
        List.iter
          (fun (nid, label, why) ->
            Pv_obs.Trace.instant t.trace ~tid:Pv_obs.Trace.tid_sim ~ts:at_cycle
              ~args:[ ("node", nid) ]
              (Printf.sprintf "stall %s#%d: %s" label nid why))
          pm.pm_stalled
  end

(* The fire counts by node id; [fires] is indexed by slot. *)
let node_fires t = Array.init t.n (fun nid -> t.fires.(t.slot_of.(nid)))

let drive ?(before_step = ignore) t =
  let cfg = t.cfg in
  let rec loop () =
    if finished t then Finished { cycles = t.cycle }
    else if t.cycle >= cfg.max_cycles then
      Timeout { at_cycle = t.cycle; post_mortem = post_mortem t }
    else if t.cycle - t.last_progress > cfg.stall_limit then
      Deadlock { at_cycle = t.cycle; post_mortem = post_mortem t }
    else begin
      (* cooperative cancellation: polled every 64 cycles so a
         deadline-checking token (a clock read) costs nothing measurable *)
      if t.cycle land 63 = 0 && cfg.cancel () then
        raise (Cancelled { at_cycle = t.cycle });
      before_step ();
      step t;
      loop ()
    end
  in
  let outcome = loop () in
  trace_outcome t outcome;
  let gen_instances = ref 0 in
  for slot = 0 to t.n - 1 do
    gen_instances := !gen_instances + t.g_emitted.(slot)
  done;
  ( outcome,
    {
      cycles = t.cycle;
      node_fires = node_fires t;
      gen_instances = !gen_instances;
      evals = t.evals;
    } )

let run ?cfg ?trace ?prof g mem = drive (create ?cfg ?trace ?prof g mem)

(* --- read-only accessors (tools: vcd) ------------------------------------ *)

let graph t = t.g
let cycle t = t.cycle
let epoch t = t.epoch
let evals t = t.evals
let fire_count t nid = t.fires.(t.slot_of.(nid))

let chan_occupied t cid = t.cur_key.(cid) >= 0

let chan_token t cid : token option =
  if t.cur_key.(cid) < 0 then None
  else Some (t.cur_key.(cid), t.cur_val.(cid))
