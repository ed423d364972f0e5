(** Structural elaboration: dataflow components and memory-subsystem macros
    to FPGA primitives.

    Datapath components follow standard elastic-component implementations
    (combinational function + handshake; storage only in buffers, FU
    pipelines and port registers).  The LSQ macro follows the published
    Dynamatic LSQ structure (per-entry storage, an order matrix, per-port
    CAM search and forwarding muxes, group allocator with ROM); the PreVV
    macro instantiates the paper's components (collapsing premature queue
    in distributed RAM, LMerge/SMerge, parallel validation comparators,
    squash/replay control) plus a replicated copy of each member pair's
    datapath for re-execution — Eq. 6 charges every pair its computation
    twice, and the re-execution path is physical.

    Per-macro fudge factors (documented in {!Calib}) absorb what synthesis
    would add in replication and control duplication; they are fitted once
    against the published Table I and then fixed for every experiment. *)

open Pv_dataflow
module P = Primitive

(* Fabric sizes in bits: data, array address, iteration sequence number. *)
let data_w = 32
let addr_w = 12
let seq_w = 12

(** Calibration constants; see DESIGN.md §9. *)
module Calib = struct
  (* LSQ: order-matrix cell replication factor and per-port search scale,
     fitted so a 32-deep pooled LSQ lands near the published ~16-18k LUTs *)
  let lsq_matrix_luts_per_cell = 12
  let lsq_port_scale = 4
  let lsq_alloc_luts = 1600
  let lsq_entry_ff_overhead = 6

  (* PreVV: arbiter/squash-control base and the share of a member leaf's
     datapath that is replicated for replay *)
  let prevv_base_luts = 7160
  let prevv_entry_luts = 61
  let prevv_base_ffs = 1690
  let prevv_entry_ffs = 10
  let prevv_replay_copies = 1
  let prevv_squash_luts_per_component = 3
end

let clog2 n =
  let rec go acc v = if v >= n then acc else go (acc + 1) (v * 2) in
  go 0 1

let part leaf prim count = { P.leaf; prim; count }

(* --- elastic datapath components ----------------------------------------- *)

(* the elastic handshake every component carries *)
let hs = part "hs" (P.Lut 3) 2

let adder w = [ part "sum" (P.Lut 2) w; part "carry" P.Carry4 ((w + 3) / 4); hs ]

let comparator w =
  [ part "cmp" (P.Lut 3) ((w + 1) / 2); part "carry" P.Carry4 ((w + 3) / 4); hs ]

let binop (op : Types.binop) w =
  match op with
  | Types.Add | Types.Sub -> adder w
  | Types.Mul ->
      (* DSP-mapped, 3 pipeline stages (II=1) *)
      [ part "dsp" P.Dsp 3; part "pipe" P.Ff (3 * w); hs ]
  | Types.Mulc ->
      (* constant multiply: shift-add network, no DSP *)
      [ part "sh_add" (P.Lut 3) (2 * w); part "carry" P.Carry4 (2 * ((w + 3) / 4)); hs ]
  | Types.Div | Types.Rem ->
      (* radix-2 restoring array divider, pipelined *)
      [
        part "array" (P.Lut 4) (w * w / 6);
        part "carry" P.Carry4 (w * w / 24);
        part "pipe" P.Ff (4 * w);
        hs;
      ]
  | Types.Lt | Types.Le | Types.Gt | Types.Ge | Types.Eq | Types.Ne ->
      comparator w
  | Types.And | Types.Or | Types.Xor -> [ part "op" (P.Lut 2) w; hs ]
  | Types.Shl | Types.Shr -> [ part "sh" (P.Lut 6) (w * clog2 w / 2); hs ]
  | Types.Min | Types.Max -> comparator w @ [ part "sel" (P.Lut 3) ((w + 1) / 2) ]

let unop (op : Types.unop) w =
  match op with
  | Types.Neg -> adder w
  | Types.Not -> [ part "not" (P.Lut 1) 1; hs ]
  | Types.Lnot -> [ part "inv" (P.Lut 1) w; hs ]

let buffer ~slots w =
  if slots <= 2 then
    [ part "regs" P.Ff (slots * (w + 1)); part "ctl" (P.Lut 4) 3; hs ]
  else
    (* SRL-based FIFO: storage in LUT fabric, pointers in FFs *)
    [
      part "srl" (P.Lutram (w + 1)) 1;
      part "ptr" P.Ff (2 * clog2 (max 2 slots));
      part "ctl" (P.Lut 4) 4;
      hs;
    ]

(** The parts of one dataflow component; a fused loop generator's own
    parts are its FSM, and each of its levels adds {!loop_level}. *)
let component (kind : Types.kind) =
  let w = data_w in
  match kind with
  | Types.Gen _ -> [ part "fsm" (P.Lut 5) 24 ]
  | Types.Const _ -> [ part "bits" (P.Lut 1) (w / 8); hs ]
  | Types.Unop op -> unop op w
  | Types.Binop op -> binop op w
  | Types.Fork n -> [ part "ctl" (P.Lut 4) (2 * n); hs ]
  | Types.Join n -> [ part "ctl" (P.Lut 4) n; hs ]
  | Types.Merge n ->
      [ part "mux" (P.Lut 6) ((n - 1) * ((w + 1) / 2)); part "arb" (P.Lut 4) n; hs ]
  | Types.Mux n ->
      [
        part "mux" (P.Lut 6) (n * ((w + 1) / 2));
        part "muxf" P.Muxf (if n > 2 then (n - 2) * (w / 4) else 0);
        hs;
      ]
  | Types.Branch -> [ part "route" (P.Lut 4) 4; hs ]
  | Types.Buffer { slots; _ } -> buffer ~slots w
  | Types.Sink -> []
  | Types.Load _ -> [ part "addr_reg" P.Ff addr_w; part "ctl" (P.Lut 4) 5; hs ]
  | Types.Store _ -> [ part "regs" P.Ff (addr_w + w); part "ctl" (P.Lut 4) 6; hs ]
  | Types.Skip _ -> [ part "" (P.Lut 3) 2 ]
  | Types.Galloc _ -> [ part "" (P.Lut 3) 3 ]

(** One level of a fused loop controller: counter + bound comparator. *)
let loop_level =
  adder data_w @ comparator data_w @ [ part "state" P.Ff (data_w + seq_w) ]

(* --- memory subsystem macros --------------------------------------------- *)

(** Memory controller for direct (provably independent) ports. *)
let mem_controller ~nports =
  [
    part "arb" (P.Lut 4) (nports * 6);
    part "mux" (P.Lut 6) (nports * ((addr_w + data_w) / 2));
    part "regs" P.Ff (nports * 4);
  ]

(** The pooled Dynamatic LSQ: entries, order matrix, per-port CAM search
    and store-to-load forwarding, group allocator.  [fast_alloc] adds the
    fast-token-delivery network of [8] (extra area, better timing). *)
let lsq ~depth ~nload_ports ~nstore_ports ~ngroups ~fast_alloc =
  let d = depth in
  let ports = nload_ports + nstore_ports in
  let fast =
    if fast_alloc then
      [
        (* straight-to-the-queue token network [8] *)
        part "fast_tokens" (P.Lut 4) ((ngroups * 48) + (ports * 16));
        part "fast_regs" P.Ff (ngroups * 12);
      ]
    else []
  in
  (* per-entry payload: address, data (SQ), flags *)
  part "lq_entries" P.Ff (d * (addr_w + seq_w + Calib.lsq_entry_ff_overhead))
  :: part "sq_entries" P.Ff
       (d * (addr_w + data_w + seq_w + Calib.lsq_entry_ff_overhead))
  (* age/order matrix: d^2 cells of set/reset + priority logic *)
  :: part "order_matrix" P.Ff (d * d)
  :: part "order_logic" (P.Lut 4) (d * d * Calib.lsq_matrix_luts_per_cell)
  (* per-port CAM search (address equality against every entry) and
     forwarding mux (any entry's data to the load result) *)
  :: part "cam" (P.Lut 4) (Calib.lsq_port_scale * ports * d * ((addr_w + 3) / 4))
  :: part "fwd_mux" (P.Lut 6)
       (Calib.lsq_port_scale * nload_ports * d * ((data_w + 3) / 4))
  :: part "fwd_muxf" P.Muxf (nload_ports * d)
  (* priority encoders for issue and commit selection *)
  :: part "prio" (P.Lut 5) (2 * d * clog2 (max 2 d) * 2)
  (* group allocator + program-order ROM *)
  :: part "alloc" (P.Lut 4) (Calib.lsq_alloc_luts + (ngroups * 24))
  :: part "rom" (P.Lutram 8) (max 1 (ngroups * ports / 8))
  :: fast

(** One PreVV disambiguation instance: collapsing premature queue in
    distributed RAM, LMerge/SMerge, parallel validation comparators, ROM,
    squash/replay controller.  [member_datapath_luts] is the LUT size of
    the ambiguous pair's computation, replicated for re-execution. *)
let prevv ~depth ~nload_ports ~nstore_ports ~ngroups ~member_datapath_luts =
  let d = depth in
  let ports = nload_ports + nstore_ports in
  let entry_bits = seq_w + addr_w + data_w + 2 in
  (* per entry: collapse/shift network, parallel validation comparators
     (Eqs. 2-5), erring-iteration priority, and queue bypass muxing *)
  let collapse = (entry_bits + 2) / 3 in
  let validate = 2 * (((seq_w + 3) / 4) + ((addr_w + 3) / 4) + ((data_w + 3) / 4)) in
  let prio = clog2 (max 2 d) in
  let bypass = max 0 (Calib.prevv_entry_luts - collapse - validate - prio) in
  [
    (* queue payload in LUT RAM banks of 32 entries *)
    part "queue" (P.Lutram entry_bits) (max 1 ((d + 31) / 32));
    part "queue_valid" P.Ff d;
    part "queue_meta" P.Ff (d * Calib.prevv_entry_ffs);
    part "ptrs" P.Ff ((2 * clog2 (max 2 d)) + 4);
    (* LMerge / SMerge packing trees *)
    part "lmerge" (P.Lut 6) (nload_ports * ((entry_bits + 1) / 2));
    part "smerge" (P.Lut 6) (nstore_ports * ((entry_bits + 1) / 2));
    (* same-iteration order ROM *)
    part "rom" (P.Lutram 8) (max 1 (ngroups * ports / 8));
    (* arbiter core, squash mux / iter_err broadcast, replay sequencing *)
    part "arbiter" (P.Lut 4) (Calib.prevv_base_luts * 2 / 5);
    part "squash" (P.Lut 4) (Calib.prevv_base_luts * 3 / 10);
    part "replay_ctl" (P.Lut 4) (Calib.prevv_base_luts * 3 / 10);
    part "replay_regs" P.Ff (Calib.prevv_base_ffs * 7 / 10);
    part "epoch_regs" P.Ff (Calib.prevv_base_ffs * 3 / 10);
    (* replicated member datapath for re-execution (Eq. 6's second pass) *)
    part "replay_dp" (P.Lut 4) (Calib.prevv_replay_copies * member_datapath_luts);
    part "collapse" (P.Lut 4) (d * collapse);
    part "validate" (P.Lut 4) (d * validate);
    part "err_prio" (P.Lut 4) (d * prio);
    part "bypass" (P.Lut 4) (d * bypass);
  ]

(** PreVV's squash broadcast: every component of the circuit must be able
    to drop its tokens of a squashed iteration. *)
let squash_net ~components =
  [ part "" (P.Lut 3) (Calib.prevv_squash_luts_per_component * components) ]

(** One program-order gate per ambiguous array: a head counter, a port
    comparator and a busy flag — no queues, no search. *)
let serializer ~nports ~ngroups =
  [ part "" (P.Lut 4) ((4 * nports) + ngroups); part "" P.Ff (2 * addr_w) ]
