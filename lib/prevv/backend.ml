(** The PreVV memory backend: one premature queue + arbiter per ambiguous
    array (one disambiguation instance), no load or store queue.

    Premature execution: loads read committed memory the moment their
    address arrives; stores buffer in the premature queue and reach memory
    only when their whole body instance has been validated, in original
    program order (the commit frontier).  The arbiter checks each arriving
    record against the queue (Eqs. 2–5); a violation squashes the pipeline
    from the erring iteration, and the circuit replays it — the simulator
    purges in-flight tokens and rewinds the loop generator.  Conditional
    pair members send fake tokens (Sec. V-C); a circuit built without
    them never calls [op_skip] and reproduces the deadlock of Fig. 6. *)

open Pv_memory
module Token = Pv_dataflow.Types.Token

type config = {
  depth_q : int;  (** premature queue depth ([Depth_q] of Sec. IV-B) *)
  value_validation : bool;
      (** Eq. 5 on/off (ablation: off = address-only disambiguation) *)
  collapse_queue : bool;
      (** interior slot reclamation on/off (ablation: off = naive circular
          pointers, prone to fragmentation wedging) *)
  squash_budget : int;
      (** livelock guard: consecutive squashes of the {e same} iteration
          tolerated before the backend degrades to non-speculative load
          admission (a load only issues once no older store can still
          accuse it).  Unreachable in fault-free runs — the strict re-issue
          after a squash already guarantees forward progress — but a stuck
          external squash source (fault injection, a flaky error detector)
          would otherwise replay one iteration forever. *)
}

(* Simulated queue entries per named (paper) depth unit: this simulator
   pipelines the datapath into roughly twice as many (thinner) stages as
   the published circuits, so occupancies — and hence the capacity a named
   depth must provide — scale by the same factor.  The LSQ baselines use
   the identical mapping (16-entry paper default -> 32 simulated). *)
let depth_scale = 2

(** Configuration for a paper-named depth (PreVV16, PreVV64, ...). *)
let named ~depth =
  {
    depth_q = depth_scale * depth;
    value_validation = true;
    collapse_queue = true;
    squash_budget = 8;
  }

(* validated store-carrying instances retired per cycle *)
let commits_per_cycle = 1

type inst = {
  q : Premature_queue.t;
  quota : int;
      (** per-port fair share of queue slots.  A port may not hold more
          outstanding records than its quota, so no port can race ahead
          and starve the others out of the queue. *)
  out_cnt : int array;  (** port -> live (outstanding) records *)
  pos_tbl : int array array;
      (** group -> port -> ROM position, [-1] for non-members: the per-op
          [pos_of] lookup with no hashing and no [rom_pos] scan *)
  member_mask : int array;  (** group -> bitmask of member port ids *)
  store_mask : int array;  (** group -> bitmask of member {e store} ports *)
  stores_before : int array array;
      (** group -> ROM position -> bitmask of member stores the ROM places
          strictly before that position.  With arrivals likewise kept as a
          port bitmask per iteration, every completeness question the
          backend asks each cycle (all members in?  all stores in?  an
          earlier store missing?) is one mask compare. *)
  mutable saf : int;
      (** store-arrival frontier: all member {e stores} of iterations
          below [saf] have reached the arbiter (or sent fake tokens).
          A load record retires once [saf] passes its iteration — every
          store that could have accused it has been validated against it
          (Eqs. 2-5), so it leaves the queue long before the commit
          frontier reaches it.  Stores retire at commit. *)
  arrivals : int array;  (** seq -> arrived-port bitmask, 0 = none *)
  wm : Arbiter.watermark;
      (** incremental-validation watermark: the retirement sweep of
          [validate_loads] runs only when [saf] moved past it, a late load
          arrived behind it, or a squash rewound it *)
  release_port : int -> unit;
      (** pre-allocated per-port credit release, handed to the queue's
          retirement sweeps so the per-cycle paths build no entry lists *)
}

type t = {
  cfg : config;
  mem : int array;
  stats : Pv_dataflow.Memif.stats;
  insts : inst array;
  group_of : int array;
      (** seq -> group, [-1] = not begun; set by the allocator and never
          cleared (a replay re-begins the same iteration) *)
  mutable max_begun : int;
      (** highest iteration ever begun: no arrival lies beyond it, so a
          squash clears arrivals up to here, not to the schedule's end *)
  port_inst : int array;  (** port -> disambiguation instance, [-1] = direct *)
  resp : Pv_dataflow.Ring.t array;
      (** port -> ring of (ready_at, packed token key, value) records,
          request order *)
  mutable now : int;
  mutable pending_squash : int;
      (** earliest erring iteration raised and not yet polled; [max_int]
          = none *)
  mutable frontier : int;
      (** oldest not-yet-committed body instance.  The frontier is global
          (program order across all disambiguation instances): committing a
          store only after {e every} instance has seen all older operations
          prevents a store whose address was derived from another array's
          mis-speculated load from corrupting memory before the squash. *)
  mutable strict_seq : int;
      (** after a squash at [s], loads of instance [s] re-issue
          non-speculatively until the frontier passes [s] *)
  mutable max_arrived : int;
  mutable replay_until : int;  (** ops at or below this seq are replays *)
  (* livelock guard *)
  mutable last_err : int;  (** iteration of the most recent squash *)
  mutable err_streak : int;  (** consecutive squashes of [last_err] *)
  mutable degraded_at : int option;
      (** cycle the guard engaged; [Some _] = speculative load admission is
          off for the rest of the run *)
  (* per-array (per-BRAM) budgets, two reads and one write per cycle, by
     dense array id ([Portmap.array_ids]); the per-cycle reset is two
     [Array.fill]s *)
  port_aid : int array;  (** port -> array id *)
  reads : int array;  (** array id -> read ports left this cycle *)
  writes : int array;  (** array id -> write ports left this cycle *)
  aid_need : int array;  (* commit scratch: per-array write demand *)
  c_inst : int array;  (* commit scratch: instance of collected store *)
  c_slot : int array;  (* commit scratch: queue slot of collected store *)
  (* the op most recently refused for having no ROM position (its seq has
     no group, or the group's ROM lacks its port) — only a fault such as a
     dropped control token presents one; [describe] names it *)
  mutable refused_port : int;
  mutable refused_seq : int;
  (* observability: arbiter decision tallies, event sink (Trace.null unless
     a sink was passed to [create_full]), last emitted counter samples *)
  arb_stats : Arbiter.stats;
  arb : Arbiter.stats option;
      (* [Some arb_stats], built once so the per-op arbiter calls pass
         their optional arguments without boxing one per call *)
  value_validation : bool option;
  trace : Pv_obs.Trace.t;
  prof : Pv_obs.Prof.t;  (* cycle-attribution phases; Prof.null unless passed *)
  mutable last_occ : int;
  mutable last_frontier : int;
}

let take budget aid =
  budget.(aid) > 0
  && begin
       budget.(aid) <- budget.(aid) - 1;
       true
     end

let[@inline] group_at t seq =
  if seq >= 0 && seq < Array.length t.group_of then t.group_of.(seq) else -1

let mark_arrival inst ~seq ~port =
  inst.arrivals.(seq) <- inst.arrivals.(seq) lor (1 lsl port)

let rec popcount x acc = if x = 0 then acc else popcount (x land (x - 1)) (acc + 1)

(* A speculative read with an address derived from a mis-speculated load
   can point anywhere; real hardware would return whatever the RAM drives
   (undefined data) and the squash repairs the pipeline.  Reads outside
   the RAM return 0 rather than trapping. *)
let read_mem t addr =
  if addr >= 0 && addr < Array.length t.mem then t.mem.(addr) else 0

let respond t ~port ~ready_at ~key ~value =
  Pv_dataflow.Ring.push3 t.resp.(port) ready_at key value

let note_occupancy t =
  let o =
    Array.fold_left (fun acc i -> acc + Premature_queue.occupancy i.q) 0 t.insts
  in
  if o > t.stats.Pv_dataflow.Memif.max_occupancy then
    t.stats.Pv_dataflow.Memif.max_occupancy <- o;
  if Pv_obs.Trace.enabled t.trace && o <> t.last_occ then begin
    Pv_obs.Trace.counter t.trace ~tid:Pv_obs.Trace.tid_queue ~ts:t.now
      "pq_occupancy" o;
    t.last_occ <- o
  end

let raise_squash t seq_err =
  if seq_err < t.pending_squash then t.pending_squash <- seq_err

(* Slots kept for the oldest iteration to complete: exactly its
   not-yet-arrived member operations.  Their ports always have zero
   outstanding records (anything older retired at the store-arrival or
   commit frontier), so the reserve guarantees room for the *current*
   frontier's missing operations only.  It does not make admission
   deadlock-free: when the frontier advances to iteration i, i's missing
   operations can find the queue full of younger records that retire only
   at their own commit (perfbench's defect_gen31686/prevv16 deadlocks at
   cycle 4198; ROADMAP item 1 has the diagnosis and a candidate fix). *)
let frontier_reserve t inst =
  let g = group_at t t.frontier in
  if g < 0 then 0
  else popcount (inst.member_mask.(g) land lnot inst.arrivals.(t.frontier)) 0

(* Queue admission: frontier-instance operations may use the reserved
   slots; younger records must respect both the per-port quota and the
   unreserved capacity. *)
let has_room t inst ~port ~seq =
  if seq <= t.frontier then not (Premature_queue.is_full inst.q)
  else
    inst.out_cnt.(port) < inst.quota
    && Premature_queue.occupancy inst.q
       < t.cfg.depth_q - frontier_reserve t inst

(* Is some store of the same (begun) body instance, placed before [pos] by
   the ROM, still missing from the arbiter? *)
let same_seq_store_pending t inst ~seq ~pos =
  let before = inst.stores_before.(t.group_of.(seq)).(pos) in
  before <> 0 && before land lnot inst.arrivals.(seq) <> 0

(* Strict re-issue after a squash: a load of the squashed instance may only
   read once every same-instance store that the ROM places before it has
   arrived (it will then forward), and otherwise behaves normally. *)
let strict_blocked t inst ~seq ~pos =
  seq = t.strict_seq && same_seq_store_pending t inst ~seq ~pos

(* Degraded (livelock-guard) admission: a load issues only once no store
   that could accuse it can still arrive — every older iteration's stores
   are in ([seq <= saf]) and so are the same-iteration stores the ROM
   places before it.  Such a load can never be squashed, so admission under
   this gate makes forward progress no matter how the squash source
   behaves. *)
let degraded_blocked t inst ~seq ~pos =
  t.degraded_at <> None
  && (seq > inst.saf || same_seq_store_pending t inst ~seq ~pos)

(* ROM position of an instance op, or -1 when its seq has no group or the
   group's ROM lacks its port.  A fault-free run never presents such an op
   (a dropped control token can); it is refused and remembered for
   [describe], so the hang it causes ends in a diagnosed deadlock. *)
let pos_of t inst ~seq ~port =
  let g = group_at t seq in
  let p = if g < 0 then -1 else inst.pos_tbl.(g).(port) in
  if p < 0 then begin
    t.refused_port <- port;
    t.refused_seq <- seq
  end;
  p

(* Advance the store-arrival frontier and retire validated load records:
   once every store of all older iterations (and the same iteration's
   earlier-ROM stores) has arrived and been compared, no future arrival can
   accuse the load, so its record leaves the queue.  Stores stay until the
   commit frontier writes them back. *)
let validate_loads t inst =
  let continue = ref true in
  while !continue do
    let g = group_at t inst.saf in
    if g < 0 then continue := false
    else
      let sm = inst.store_mask.(g) in
      if inst.arrivals.(inst.saf) land sm = sm then inst.saf <- inst.saf + 1
      else continue := false
  done;
  (* Retire every load record the frontier has passed.  Once [saf] is
     beyond an iteration, all of its member stores have arrived, so no
     same-iteration earlier store can still be missing — the sweep
     predicate is one key compare.  The watermark skips the sweep on the
     (common) cycles where the frontier sat still and no late load
     arrived; cost is attributed per record actually scanned, so the
     pq_validate phase now measures real validation work rather than
     queue-polling overhead. *)
  if Arbiter.wm_pending inst.wm ~saf:inst.saf then begin
    if Pv_obs.Prof.enabled t.prof then
      Pv_obs.Prof.add t.prof ~phase:Pv_obs.Prof.phase_pq_validate
        inst.q.Premature_queue.n_load;
    ignore
      (Premature_queue.retire_loads_below inst.q ~seq:inst.saf
         ~on_port:inst.release_port
        : int);
    Arbiter.wm_mark inst.wm ~saf:inst.saf
  end

(* commit-path scratch accessors: ROM position / port of the [a]-th
   collected store record *)
let c_pos t a =
  Premature_queue.okey_pos
    t.insts.(t.c_inst.(a)).q.Premature_queue.key.(t.c_slot.(a))

let c_port t a =
  Premature_queue.m_port
    t.insts.(t.c_inst.(a)).q.Premature_queue.meta.(t.c_slot.(a))

(* Has every disambiguation instance seen all member operations of body
   instance [s] (group [g])? *)
let complete t ~s ~g =
  let ok = ref true and ii = ref 0 in
  while !ok && !ii < Array.length t.insts do
    let inst = t.insts.(!ii) in
    let mm = inst.member_mask.(g) in
    ok := inst.arrivals.(s) land mm = mm;
    incr ii
  done;
  !ok

(* Advance the global commit frontier: a body instance retires when every
   disambiguation instance has seen all of its member operations (arrivals
   or fake tokens); its stores then reach memory in ROM order.  Instances
   without member ops anywhere are skipped for free; at most
   [commits_per_cycle] store-carrying instances retire per cycle. *)
let advance_frontier t =
  let budget = ref commits_per_cycle in
  let continue = ref true in
  while !continue do
    let s = t.frontier in
    let g = group_at t s in
    (* never retire an instance that a same-cycle violation will squash *)
    if s >= t.pending_squash || g < 0 || not (complete t ~s ~g) then
      continue := false
    else begin
      (* collect the body instance's store records straight from the
         packed store views into preallocated scratch (slot numbers, no
         boxed entries), then insertion-sort by ROM position *)
      let k = ref 0 in
      for ii = 0 to Array.length t.insts - 1 do
        let q = t.insts.(ii).q in
        for vi = 0 to q.Premature_queue.n_store - 1 do
          let slot = q.Premature_queue.v_store.(vi) in
          if Premature_queue.okey_seq q.Premature_queue.key.(slot) = s then begin
            t.c_inst.(!k) <- ii;
            t.c_slot.(!k) <- slot;
            incr k
          end
        done
      done;
      let k = !k in
      for a = 1 to k - 1 do
        let ci = t.c_inst.(a) and cs = t.c_slot.(a) in
        let p =
          Premature_queue.okey_pos t.insts.(ci).q.Premature_queue.key.(cs)
        in
        let b = ref (a - 1) in
        while !b >= 0 && c_pos t !b > p do
          t.c_inst.(!b + 1) <- t.c_inst.(!b);
          t.c_slot.(!b + 1) <- t.c_slot.(!b);
          decr b
        done;
        t.c_inst.(!b + 1) <- ci;
        t.c_slot.(!b + 1) <- cs
      done;
      (* every store of the instance needs a write port this cycle: tally
         the per-array demand and compare against the budgets *)
      let bw_ok = ref true in
      if k > 0 then begin
        Array.fill t.aid_need 0 (Array.length t.aid_need) 0;
        for a = 0 to k - 1 do
          let aid = t.port_aid.(c_port t a) in
          t.aid_need.(aid) <- t.aid_need.(aid) + 1
        done;
        for aid = 0 to Array.length t.aid_need - 1 do
          if t.aid_need.(aid) > t.writes.(aid) then bw_ok := false
        done
      end;
      if k > 0 && (!budget = 0 || not !bw_ok) then continue := false
      else begin
        for a = 0 to k - 1 do
          let q = t.insts.(t.c_inst.(a)).q in
          let slot = t.c_slot.(a) in
          let aid = t.port_aid.(c_port t a) in
          t.writes.(aid) <- t.writes.(aid) - 1;
          t.mem.(q.Premature_queue.index.(slot)) <-
            q.Premature_queue.value.(slot)
        done;
        if k > 0 then decr budget;
        for ii = 0 to Array.length t.insts - 1 do
          let inst = t.insts.(ii) in
          ignore
            (Premature_queue.retire_eq inst.q ~seq:s ~on_port:inst.release_port
              : int);
          inst.arrivals.(s) <- 0
        done;
        t.frontier <- s + 1;
        if t.strict_seq < t.frontier then t.strict_seq <- -1
      end
    end
  done

let create_full ?(trace = Pv_obs.Trace.null) ?(prof = Pv_obs.Prof.null)
    (cfg : config) (pm : Portmap.t) ~n_seq (mem : int array) :
    t * Pv_dataflow.Memif.t =
  let n_ports = Array.length pm.Portmap.ports in
  if n_ports > 62 then
    invalid_arg
      (Printf.sprintf
         "PreVV: %d ports exceed the 62-port arrival-bitmask limit" n_ports);
  let port_aid, n_arrays = Portmap.array_ids pm in
  let make_inst id =
    let is_member p = p.Portmap.instance = Some id in
    let count pred =
      Array.fold_left (fun acc p -> if pred p then acc + 1 else acc) 0
        pm.Portmap.ports
    in
    let member_ports = count is_member in
    if cfg.depth_q < member_ports then
      invalid_arg
        (Printf.sprintf
           "PreVV: depth_q %d%s is smaller than instance %d's %d member \
            ports; one body instance could never fit and the commit frontier \
            would never advance"
           cfg.depth_q
           (if cfg.depth_q mod depth_scale = 0 then
              Printf.sprintf " (named depth %d)" (cfg.depth_q / depth_scale)
            else "")
           id member_ports);
    let n_stores =
      count (fun p -> is_member p && p.Portmap.kind = Portmap.OStore)
    in
    let n_loads = max 1 (member_ports - n_stores) in
    let rom = pm.Portmap.rom.(id) in
    let n_groups = Array.length rom in
    let member_mask = Array.make n_groups 0 in
    let store_mask = Array.make n_groups 0 in
    let stores_before =
      Array.init n_groups (fun g ->
          let ports = rom.(g) in
          let sb = Array.make (Array.length ports) 0 in
          let acc = ref 0 in
          Array.iteri
            (fun p pid ->
              member_mask.(g) <- member_mask.(g) lor (1 lsl pid);
              sb.(p) <- !acc;
              if (Portmap.port pm pid).Portmap.kind = Portmap.OStore then begin
                store_mask.(g) <- store_mask.(g) lor (1 lsl pid);
                acc := !acc lor (1 lsl pid)
              end)
            ports;
          sb)
    in
    let out_cnt = Array.make n_ports 0 in
    {
      q = Premature_queue.create ~collapse:cfg.collapse_queue cfg.depth_q;
      quota =
        max 1
          (int_of_float
             (Float.round
                (float_of_int (cfg.depth_q - n_stores) /. float_of_int n_loads)));
      out_cnt;
      pos_tbl =
        Array.init n_groups (fun g ->
            let tbl = Array.make n_ports (-1) in
            Array.iteri (fun p pid -> tbl.(pid) <- p) rom.(g);
            tbl);
      member_mask;
      store_mask;
      stores_before;
      saf = 0;
      arrivals = Array.make n_seq 0;
      wm = Arbiter.fresh_watermark ();
      release_port =
        (fun port ->
          if out_cnt.(port) > 0 then out_cnt.(port) <- out_cnt.(port) - 1);
    }
  in
  let arb_stats = Arbiter.fresh_stats () in
  let t =
    {
      cfg;
      mem;
      stats = Pv_dataflow.Memif.fresh_stats ();
      insts = Array.init pm.Portmap.n_instances make_inst;
      group_of = Array.make n_seq (-1);
      max_begun = -1;
      port_inst =
        Array.map
          (fun p -> Option.value p.Portmap.instance ~default:(-1))
          pm.Portmap.ports;
      resp = Array.init n_ports (fun _ -> Pv_dataflow.Ring.create ~stride:3 8);
      now = 0;
      pending_squash = max_int;
      frontier = 0;
      strict_seq = -1;
      max_arrived = -1;
      replay_until = -1;
      last_err = -1;
      err_streak = 0;
      degraded_at = None;
      port_aid;
      reads = Array.make n_arrays 2;
      writes = Array.make n_arrays 1;
      aid_need = Array.make n_arrays 0;
      c_inst = Array.make (max n_ports 1) 0;
      c_slot = Array.make (max n_ports 1) 0;
      refused_port = -1;
      refused_seq = -1;
      arb_stats;
      arb = Some arb_stats;
      value_validation = Some cfg.value_validation;
      trace;
      prof;
      last_occ = -1;
      last_frontier = -1;
    }
  in
  let stall_full () =
    t.stats.Pv_dataflow.Memif.stall_full <-
      t.stats.Pv_dataflow.Memif.stall_full + 1
  in
  let stall_order () =
    t.stats.Pv_dataflow.Memif.stall_order <-
      t.stats.Pv_dataflow.Memif.stall_order + 1
  in
  let stall_bw () =
    t.stats.Pv_dataflow.Memif.stall_bw <- t.stats.Pv_dataflow.Memif.stall_bw + 1
  in
  let note_arrival seq =
    if seq <= t.replay_until then
      t.stats.Pv_dataflow.Memif.replayed_ops <-
        t.stats.Pv_dataflow.Memif.replayed_ops + 1;
    if seq > t.max_arrived then t.max_arrived <- seq
  in
  let begin_instance ~seq ~group =
    if seq < 0 || seq >= n_seq then
      invalid_arg
        (Printf.sprintf "PreVV: body instance %d is beyond the %d-instance \
                         schedule" seq n_seq);
    t.group_of.(seq) <- group;
    if seq > t.max_begun then t.max_begun <- seq;
    true
  in
  (* an admitted load: record it, count it, respond at [ready_at] *)
  let admit_load inst ~port ~key ~seq ~pos ~addr ~value ~ready_at =
    if
      not
        (Premature_queue.record inst.q ~seq ~pos ~port ~kind:Portmap.OLoad
           ~index:addr ~value)
    then begin
      stall_full ();
      false
    end
    else begin
      Arbiter.wm_note_load inst.wm ~seq ~saf:inst.saf;
      inst.out_cnt.(port) <- inst.out_cnt.(port) + 1;
      mark_arrival inst ~seq ~port;
      note_arrival seq;
      respond t ~port ~ready_at ~key ~value;
      t.stats.Pv_dataflow.Memif.loads <- t.stats.Pv_dataflow.Memif.loads + 1;
      Pv_obs.Prof.add prof ~phase:Pv_obs.Prof.phase_mem_service 1;
      note_occupancy t;
      true
    end
  in
  let load_req ~port ~key ~addr =
    let seq = Token.seq key in
    let i = t.port_inst.(port) in
    if i < 0 then
      if take t.reads port_aid.(port) then begin
        t.stats.Pv_dataflow.Memif.loads <- t.stats.Pv_dataflow.Memif.loads + 1;
        Pv_obs.Prof.add prof ~phase:Pv_obs.Prof.phase_mem_service 1;
        respond t ~port ~ready_at:(t.now + Pv_dataflow.Memif.mem_latency) ~key
          ~value:(read_mem t addr);
        true
      end
      else begin
        stall_bw ();
        false
      end
    else
      let inst = t.insts.(i) in
      let pos = pos_of t inst ~seq ~port in
      pos >= 0
      && begin
           (* the gate scans the store view only (Eq. 3 resolved
              structurally): one scan unit per record actually compared *)
           if Pv_obs.Prof.enabled prof then
             Pv_obs.Prof.add prof ~phase:Pv_obs.Prof.phase_arbiter_scan
               inst.q.Premature_queue.n_store;
           match Arbiter.load_gate ?stats:t.arb inst.q ~seq ~pos ~index:addr with
           | Arbiter.Wait ->
               stall_order ();
               false
           | Arbiter.Forward v ->
               (* forwarding still speculates that no {e older} store is
                  missing, so the degraded gate applies here too *)
               if degraded_blocked t inst ~seq ~pos then begin
                 stall_order ();
                 false
               end
               else if not (has_room t inst ~port ~seq) then begin
                 stall_full ();
                 false
               end
               else if
                 admit_load inst ~port ~key ~seq ~pos ~addr ~value:v
                   ~ready_at:(t.now + 1)
               then begin
                 t.stats.Pv_dataflow.Memif.forwarded <-
                   t.stats.Pv_dataflow.Memif.forwarded + 1;
                 true
               end
               else false
           | Arbiter.Clear ->
               if
                 strict_blocked t inst ~seq ~pos
                 || degraded_blocked t inst ~seq ~pos
               then begin
                 stall_order ();
                 false
               end
               else if not (has_room t inst ~port ~seq) then begin
                 stall_full ();
                 false
               end
               else if not (take t.reads port_aid.(port)) then begin
                 stall_bw ();
                 false
               end
               else
                 admit_load inst ~port ~key ~seq ~pos ~addr
                   ~value:(read_mem t addr)
                   ~ready_at:(t.now + Pv_dataflow.Memif.mem_latency)
         end
  in
  let store_req ~port ~key ~addr ~value =
    let seq = Token.seq key in
    let i = t.port_inst.(port) in
    if i < 0 then
      if take t.writes port_aid.(port) then begin
        t.stats.Pv_dataflow.Memif.stores <- t.stats.Pv_dataflow.Memif.stores + 1;
        Pv_obs.Prof.add prof ~phase:Pv_obs.Prof.phase_mem_service 1;
        if addr >= 0 && addr < Array.length t.mem then t.mem.(addr) <- value;
        true
      end
      else begin
        stall_bw ();
        false
      end
    else
      let inst = t.insts.(i) in
      let pos = pos_of t inst ~seq ~port in
      if pos < 0 then false
      else if not (has_room t inst ~port ~seq) then begin
        stall_full ();
        false
      end
      else begin
        (* violation checking scans the load view only (Eq. 3 resolved
           structurally): one unit per record actually compared *)
        if Pv_obs.Prof.enabled prof then
          Pv_obs.Prof.add prof ~phase:Pv_obs.Prof.phase_pq_validate
            inst.q.Premature_queue.n_load;
        let violation =
          Arbiter.store_violation ?value_validation:t.value_validation
            ?stats:t.arb inst.q ~seq ~pos ~index:addr ~value
        in
        if Pv_obs.Trace.enabled t.trace then begin
          Pv_obs.Trace.instant t.trace ~tid:Pv_obs.Trace.tid_arbiter ~ts:t.now
            ~args:[ ("seq", seq); ("index", addr) ]
            "validation";
          match violation with
          | Some seq_err ->
              Pv_obs.Trace.instant t.trace ~tid:Pv_obs.Trace.tid_arbiter
                ~ts:t.now
                ~args:[ ("seq", seq); ("seq_err", seq_err) ]
                "violation"
          | None -> ()
        end;
        if
          not
            (Premature_queue.record inst.q ~seq ~pos ~port ~kind:Portmap.OStore
               ~index:addr ~value)
        then begin
          stall_full ();
          false
        end
        else begin
          (match violation with
          | Some seq_err -> raise_squash t seq_err
          | None -> ());
          inst.out_cnt.(port) <- inst.out_cnt.(port) + 1;
          mark_arrival inst ~seq ~port;
          note_arrival seq;
          t.stats.Pv_dataflow.Memif.stores <- t.stats.Pv_dataflow.Memif.stores + 1;
          Pv_obs.Prof.add prof ~phase:Pv_obs.Prof.phase_mem_service 1;
          note_occupancy t;
          true
        end
      end
  in
  let op_skip ~port ~key =
    let seq = Token.seq key in
    let i = t.port_inst.(port) in
    i < 0
    ||
    let inst = t.insts.(i) in
    pos_of t inst ~seq ~port >= 0
    && begin
         mark_arrival inst ~seq ~port;
         t.stats.Pv_dataflow.Memif.fake_tokens <-
           t.stats.Pv_dataflow.Memif.fake_tokens + 1;
         if Pv_obs.Trace.enabled t.trace then
           Pv_obs.Trace.instant t.trace ~tid:Pv_obs.Trace.tid_backend
             ~ts:t.now
             ~args:[ ("seq", seq); ("port", port) ]
             "fake_token";
         true
       end
  in
  let poll_squash () =
    let err = t.pending_squash in
    if err = max_int then None
    else begin
      t.pending_squash <- max_int;
      t.stats.Pv_dataflow.Memif.squashes <-
        t.stats.Pv_dataflow.Memif.squashes + 1;
      assert (t.frontier <= err);
      (* livelock guard: replaying the same iteration over and over means
         speculation is not making progress — stop speculating *)
      if err = t.last_err then t.err_streak <- t.err_streak + 1
      else begin
        t.last_err <- err;
        t.err_streak <- 1
      end;
      if t.err_streak > t.cfg.squash_budget && t.degraded_at = None then begin
        t.degraded_at <- Some t.now;
        t.stats.Pv_dataflow.Memif.degraded <-
          t.stats.Pv_dataflow.Memif.degraded + 1;
        if Pv_obs.Trace.enabled t.trace then
          Pv_obs.Trace.instant t.trace ~tid:Pv_obs.Trace.tid_backend ~ts:t.now
            ~args:[ ("err", err) ]
            "degraded"
      end;
      if Pv_obs.Trace.enabled t.trace then
        Pv_obs.Trace.instant t.trace ~tid:Pv_obs.Trace.tid_backend ~ts:t.now
          ~args:[ ("seq_err", err); ("streak", t.err_streak) ]
          "backend_squash";
      t.strict_seq <- err;
      for ii = 0 to Array.length t.insts - 1 do
        let inst = t.insts.(ii) in
        ignore
          (Premature_queue.retire_ge inst.q ~seq:err ~on_port:inst.release_port
            : int);
        if inst.saf > err then inst.saf <- err;
        (* squash rewind: drag the validation watermark down with the
           frontier, else loads admitted during the replay would never be
           swept (the frontier's re-advance would look stale) *)
        Arbiter.wm_rewind inst.wm ~saf:inst.saf;
        if err <= t.max_begun then
          Array.fill inst.arrivals err (t.max_begun - err + 1) 0
      done;
      (* response rings carry packed keys in field 1: purge everything at
         or beyond the erring iteration by key order *)
      let cutoff = Token.first ~seq:err in
      for p = 0 to n_ports - 1 do
        ignore (Pv_dataflow.Ring.reject_ge t.resp.(p) ~field:1 ~cutoff : int)
      done;
      t.replay_until <- t.max_arrived;
      Some err
    end
  in
  let clock () =
    for ii = 0 to Array.length t.insts - 1 do
      validate_loads t t.insts.(ii)
    done;
    advance_frontier t;
    if Pv_obs.Trace.enabled t.trace then begin
      (* validated-load retirement changes occupancy without a request *)
      note_occupancy t;
      if t.frontier <> t.last_frontier then begin
        Pv_obs.Trace.counter t.trace ~tid:Pv_obs.Trace.tid_backend ~ts:t.now
          "commit_frontier" t.frontier;
        t.last_frontier <- t.frontier
      end
    end;
    Array.fill t.reads 0 n_arrays 2;
    Array.fill t.writes 0 n_arrays 1;
    t.now <- t.now + 1
  in
  let load_poll ~port out =
    let q = t.resp.(port) in
    (not (Pv_dataflow.Ring.is_empty q))
    && Pv_dataflow.Ring.get q 0 0 <= t.now
    && begin
         out.Pv_dataflow.Memif.ls_key <- Pv_dataflow.Ring.get q 0 1;
         out.Pv_dataflow.Memif.ls_value <- Pv_dataflow.Ring.get q 0 2;
         Pv_dataflow.Ring.pop q;
         true
       end
  in
  let quiesced () =
    Array.for_all (fun inst -> Premature_queue.is_empty inst.q) t.insts
    && Array.for_all Pv_dataflow.Ring.is_empty t.resp
    && t.pending_squash = max_int
  in
  let inject (b : Pv_dataflow.Fault.backend_action) =
    let accepted =
      match b with
      | Pv_dataflow.Fault.B_squash { seq } ->
          (* a squash below the commit frontier is meaningless (those
             iterations are architectural state already) and would break the
             frontier<=err invariant: refuse it *)
          if seq < t.frontier then false
          else begin
            raise_squash t seq;
            true
          end
      | Pv_dataflow.Fault.B_pq_flip { inst; slot; mask; detect } ->
          if inst < 0 || inst >= Array.length t.insts then false
          else begin
            match Premature_queue.corrupt t.insts.(inst).q ~slot ~mask with
            | None -> false
            | Some e ->
                (* an ECC-checked queue notices the upset and treats it as a
                   mis-speculation of the entry's iteration; an unprotected
                   one leaves detection to value validation (Eq. 5) *)
                if detect then raise_squash t e.Premature_queue.e_seq;
                true
          end
      | Pv_dataflow.Fault.B_pq_drop { inst; slot } ->
          if inst < 0 || inst >= Array.length t.insts then false
          else begin
            let i = t.insts.(inst) in
            match Premature_queue.drop i.q ~slot with
            | None -> false
            | Some e ->
                (* the record vanishes as if never made: release the slot
                   credit and forget the arrival, so the commit frontier
                   will wait forever for an operation that already happened
                   — the hang this causes must be diagnosed, not silent *)
                let s = e.Premature_queue.e_seq in
                i.release_port e.Premature_queue.e_port;
                i.arrivals.(s) <-
                  i.arrivals.(s) land lnot (1 lsl e.Premature_queue.e_port);
                if i.saf > s then i.saf <- s;
                (* same watermark rewind as a squash: the frontier moved
                   backwards, so its re-advance must trigger a sweep *)
                Arbiter.wm_rewind i.wm ~saf:i.saf;
                true
          end
    in
    if accepted then
      t.stats.Pv_dataflow.Memif.faults <- t.stats.Pv_dataflow.Memif.faults + 1;
    accepted
  in
  let describe () =
    let ints f = String.concat ";" (Array.to_list (Array.map f t.insts)) in
    Printf.sprintf
      "frontier=%d strict=%d pending=%s streak=%d(i%d)%s occ=[%s] saf=[%s]%s"
      t.frontier t.strict_seq
      (if t.pending_squash = max_int then "-"
       else string_of_int t.pending_squash)
      t.err_streak t.last_err
      (match t.degraded_at with
      | Some c -> Printf.sprintf " DEGRADED@%d" c
      | None -> "")
      (ints (fun i -> string_of_int (Premature_queue.occupancy i.q)))
      (ints (fun i -> string_of_int i.saf))
      (if t.refused_port < 0 then ""
       else
         let g = group_at t t.refused_seq in
         Printf.sprintf " refused: port %d seq %d group %d (%s)" t.refused_port
           t.refused_seq g
           (if g < 0 then "iteration not begun"
            else "port not in the group's ROM"))
  in
  ( t,
    {
      Pv_dataflow.Memif.begin_instance;
      alloc_group = (fun ~key:_ ~group:_ -> true);
      load_req;
      load_poll;
      store_req;
      store_addr = (fun ~port:_ ~key:_ ~addr:_ -> ());
      op_skip;
      poll_squash;
      clock;
      quiesced;
      stats = (fun () -> t.stats);
      inject;
      describe;
    } )

let degraded_at t = t.degraded_at
let arbiter_stats t = t.arb_stats
