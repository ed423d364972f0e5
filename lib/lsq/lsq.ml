(** Behavioural load-store queue — the Dynamatic baselines.

    One pooled LSQ serves every ambiguous port (the configuration the
    paper's Fig. 1 measures).  The group allocator reserves load/store
    entries in original program order when a basic-block instance begins
    (ROM + group allocator of Josipović et al. [4]); loads issue out of
    order once every older store's address is known, with store-to-load
    forwarding; stores commit in program order.

    The two published variants differ only in allocation behaviour:
    - {!plain} ([15], classic Dynamatic): the group token travels through
      the circuit's control network before entries become usable
      ([alloc_delay] cycles) and only one group can be allocated per cycle.
    - {!fast} ([8], fast token delivery): allocation is immediate and off
      the critical path.

    Queues are dense flat arrays in program order (a shift/collapse
    structure, as the hardware is), with packed [(seq, ROM pos)] order
    keys, so the CAM loops compare one int per entry and can early-exit:
    the load-issue ordering check is an O(1) compare against the minimum
    order key among stores with unknown addresses, forwarding is a
    backward scan that stops at the first (= youngest older) address
    match, and the commit-side WAR guard stops at the first entry at or
    beyond the committing store's key. *)

open Pv_memory
module Token = Pv_dataflow.Types.Token
module Ring = Pv_dataflow.Ring

type config = {
  lq_depth : int;
  sq_depth : int;
  alloc_delay : int;  (** cycles before allocated entries become usable *)
  alloc_per_cycle : int;
  mem_latency : int;
  issues_per_cycle : int;
      (** global load-issue cap; per-array BRAM read ports are the physical
          limit, so this is normally generous and exists for ablations *)
  commits_per_cycle : int;  (** store commits per cycle (global cap) *)
  forwarding : bool;
      (** store-to-load forwarding on/off (ablation: off = a load waits for
          the matching older store to commit) *)
}

(* Queue depths are scaled to this simulator's pipeline granularity (one
   stage per component): a Dynamatic circuit reaches the LSQ in ~3 fat
   combinational stages where ours takes ~10 thin ones, so the 16-entry
   paper default corresponds to 32 entries here.  [alloc_delay] models the
   control-network trip of the group token before entries become usable —
   long for classic Dynamatic, zero for fast token delivery. *)
let plain =
  {
    lq_depth = 32;
    sq_depth = 32;
    alloc_delay = 26;
    alloc_per_cycle = 1;
    mem_latency = 2;
    issues_per_cycle = 8;
    commits_per_cycle = 4;
    forwarding = true;
  }

let fast = { plain with alloc_delay = 0; alloc_per_cycle = 2 }

(* packed program-order key, the same (seq lsl 6) lor pos layout as the
   premature queue's: Eq.-style strictly-older tests are one compare *)
let pos_bits = 6
let max_pos = (1 lsl pos_bits) - 1
let[@inline] okey ~seq ~pos = (seq lsl pos_bits) lor pos
let[@inline] okey_seq k = k asr pos_bits

(* Dense program-ordered load queue: parallel arrays, shift-collapse on
   removal (entries leave out of order as loads issue).  [l_addr] is the
   packed address array the CAM loops scan; -1 = not yet announced.
   [l_tok] is the packed token key of the pending request, delivered back
   with the response. *)
type lq = {
  lk : int array;
  l_port : int array;
  l_usable : int array;
  l_addr : int array;
  l_tok : int array;
  mutable ln : int;
}

(* Dense program-ordered store queue.  [s_flags] bit 0 = value known,
   bit 1 = skipped (fake token).  [min_unk] caches the minimum order key
   among non-skipped stores whose address is unknown (max_int when none):
   the load-issue ordering check of the CAM loop collapses to one compare
   against it. *)
type sq = {
  sk : int array;
  s_port : int array;
  s_usable : int array;
  s_addr : int array;
  s_val : int array;
  s_flags : int array;
  mutable sn : int;
  mutable min_unk : int;
}

type t = {
  cfg : config;
  mem : int array;
  stats : Pv_dataflow.Memif.stats;
  mutable now : int;
  lq : lq;
  sq : sq;
  mutable allocs_this_cycle : int;
  resp : Ring.t array;
      (** port -> ring of (token key, ready_at, value) slots in request
          order; ready_at = -1 marks a slot whose load has not issued yet.
          Responses are delivered in request order per port — an elastic
          access port is a tagless stream, so a younger load must never
          overtake an older one of the same port even though the LSQ
          issues them out of order *)
  (* per-array (per-BRAM) port budgets by dense array id
     ([Portmap.array_ids]): two reads and one write per cycle, dual-port
     block RAM; store-to-load forwarding bypasses the RAM *)
  port_aid : int array;  (** port -> array id *)
  reads : int array;  (** array id -> read ports left this cycle *)
  writes : int array;  (** array id -> write ports left this cycle *)
  (* observability: event sink (Trace.null unless passed to [create]) and
     the last emitted occupancy sample *)
  trace : Pv_obs.Trace.t;
  prof : Pv_obs.Prof.t;
  mutable last_occ : int;
}

let take budget aid =
  budget.(aid) > 0
  && begin
       budget.(aid) <- budget.(aid) - 1;
       true
     end

(* Register a request slot in port order; completion fills it later. *)
let open_slot t ~port ~tok = Ring.push3 t.resp.(port) tok (-1) 0

(* complete the oldest unissued request slot of [tok] on [port] *)
let fill_slot t ~port ~tok ~ready_at ~value =
  let q = t.resp.(port) in
  let i = ref 0 in
  while not (Ring.get q !i 0 = tok && Ring.get q !i 1 < 0) do
    incr i;
    assert (!i < Ring.length q)
  done;
  Ring.set q !i 1 ready_at;
  Ring.set q !i 2 value

let occupancy t = t.lq.ln + t.sq.sn

let note_occupancy t =
  let o = occupancy t in
  if o > t.stats.Pv_dataflow.Memif.max_occupancy then
    t.stats.Pv_dataflow.Memif.max_occupancy <- o;
  if Pv_obs.Trace.enabled t.trace && o <> t.last_occ then begin
    Pv_obs.Trace.counter t.trace ~tid:Pv_obs.Trace.tid_queue ~ts:t.now
      "lsq_occupancy" o;
    t.last_occ <- o
  end

(* shift-collapse removal; program order is preserved by construction *)
let lq_remove (q : lq) i =
  let m = q.ln - 1 - i in
  Array.blit q.lk (i + 1) q.lk i m;
  Array.blit q.l_port (i + 1) q.l_port i m;
  Array.blit q.l_usable (i + 1) q.l_usable i m;
  Array.blit q.l_addr (i + 1) q.l_addr i m;
  Array.blit q.l_tok (i + 1) q.l_tok i m;
  q.ln <- q.ln - 1

let sq_recompute_min (q : sq) =
  let m = ref max_int in
  for i = 0 to q.sn - 1 do
    if q.s_flags.(i) land 2 = 0 && q.s_addr.(i) < 0 && q.sk.(i) < !m then
      m := q.sk.(i)
  done;
  q.min_unk <- !m

let sq_remove_head (q : sq) =
  let k = q.sk.(0) in
  let m = q.sn - 1 in
  Array.blit q.sk 1 q.sk 0 m;
  Array.blit q.s_port 1 q.s_port 0 m;
  Array.blit q.s_usable 1 q.s_usable 0 m;
  Array.blit q.s_addr 1 q.s_addr 0 m;
  Array.blit q.s_val 1 q.s_val 0 m;
  Array.blit q.s_flags 1 q.s_flags 0 m;
  q.sn <- m;
  if k = q.min_unk then sq_recompute_min q

(* A load may issue when all older stores have known addresses; it forwards
   from the youngest older store with a matching address, if any.  The
   ordering precondition is the O(1) [min_unk] compare; the forwarding
   match is a backward scan (youngest first) that exits at the first
   address hit.  CAM work is attributed per record actually scanned. *)
let try_issue_load t i : bool =
  let lq = t.lq in
  let addr = lq.l_addr.(i) in
  if addr < 0 then false
  else if lq.l_usable.(i) > t.now then false
  else begin
    let k = lq.lk.(i) in
    let sq = t.sq in
    if sq.min_unk < k then begin
      (* some older store's address is still unknown: one compare, no scan *)
      t.stats.Pv_dataflow.Memif.stall_order <-
        t.stats.Pv_dataflow.Memif.stall_order + 1;
      false
    end
    else begin
      let scanned = ref 0 in
      let j = ref (sq.sn - 1) in
      while !j >= 0 && sq.sk.(!j) >= k do
        incr scanned;
        decr j
      done;
      let found = ref (-1) in
      while !j >= 0 && !found < 0 do
        incr scanned;
        if sq.s_flags.(!j) land 2 = 0 && sq.s_addr.(!j) = addr then found := !j;
        decr j
      done;
      if Pv_obs.Prof.enabled t.prof then
        Pv_obs.Prof.add t.prof ~phase:Pv_obs.Prof.phase_lsq_cam !scanned;
      if !found >= 0 then begin
        let f = !found in
        if sq.s_flags.(f) land 1 = 1 && t.cfg.forwarding then begin
          fill_slot t ~port:lq.l_port.(i) ~tok:lq.l_tok.(i)
            ~ready_at:(t.now + 1) ~value:sq.s_val.(f);
          t.stats.Pv_dataflow.Memif.forwarded <-
            t.stats.Pv_dataflow.Memif.forwarded + 1;
          true
        end
        else begin
          (* value unknown, or forwarding disabled: wait for the commit *)
          t.stats.Pv_dataflow.Memif.stall_order <-
            t.stats.Pv_dataflow.Memif.stall_order + 1;
          false
        end
      end
      else if take t.reads t.port_aid.(lq.l_port.(i)) then begin
        fill_slot t ~port:lq.l_port.(i) ~tok:lq.l_tok.(i)
          ~ready_at:(t.now + t.cfg.mem_latency) ~value:t.mem.(addr);
        true
      end
      else begin
        t.stats.Pv_dataflow.Memif.stall_bw <-
          t.stats.Pv_dataflow.Memif.stall_bw + 1;
        false
      end
    end
  end

(* The store at the head of program order commits when its address and data
   are known and every older load that could alias has issued (WAR guard:
   a commit must not overtake an older load of the same address).  The
   load queue is program-ordered, so the guard stops at the first entry at
   or beyond the store's key. *)
let can_commit t =
  let sq = t.sq in
  sq.s_usable.(0) <= t.now
  && sq.s_addr.(0) >= 0
  && sq.s_flags.(0) land 1 = 1
  && begin
       let k = sq.sk.(0) and a = sq.s_addr.(0) in
       let lq = t.lq in
       let scanned = ref 0 in
       let blocked = ref false in
       let i = ref 0 in
       while (not !blocked) && !i < lq.ln && lq.lk.(!i) < k do
         incr scanned;
         if lq.l_addr.(!i) < 0 || lq.l_addr.(!i) = a then blocked := true;
         incr i
       done;
       if Pv_obs.Prof.enabled t.prof then
         Pv_obs.Prof.add t.prof ~phase:Pv_obs.Prof.phase_lsq_cam !scanned;
       not !blocked
     end

let clock t =
  (* issue loads, oldest first; issued entries shift-collapse out *)
  let issued = ref 0 in
  let i = ref 0 in
  while !i < t.lq.ln do
    if !issued < t.cfg.issues_per_cycle && try_issue_load t !i then begin
      incr issued;
      lq_remove t.lq !i
    end
    else incr i
  done;
  (* drop skipped stores at the head, then commit in order *)
  let committed = ref 0 in
  let continue = ref true in
  while !continue do
    let sq = t.sq in
    if sq.sn = 0 then continue := false
    else if sq.s_flags.(0) land 2 = 2 then sq_remove_head sq
    else if
      !committed < t.cfg.commits_per_cycle
      && can_commit t
      && take t.writes t.port_aid.(sq.s_port.(0))
    then begin
      t.mem.(sq.s_addr.(0)) <- sq.s_val.(0);
      if Pv_obs.Trace.enabled t.trace then
        Pv_obs.Trace.instant t.trace ~tid:Pv_obs.Trace.tid_backend ~ts:t.now
          ~args:[ ("seq", okey_seq sq.sk.(0)); ("addr", sq.s_addr.(0)) ]
          "lsq_commit";
      sq_remove_head sq;
      incr committed
    end
    else continue := false
  done;
  if Pv_obs.Trace.enabled t.trace then note_occupancy t;
  t.allocs_this_cycle <- 0;
  Array.fill t.reads 0 (Array.length t.reads) 2;
  Array.fill t.writes 0 (Array.length t.writes) 1;
  t.now <- t.now + 1

(* index of the first load entry of [port]/[seq] still awaiting its
   address, or -1 *)
let find_load t ~seq ~port =
  let q = t.lq in
  let i = ref 0 in
  while
    !i < q.ln
    && not
         (okey_seq q.lk.(!i) = seq && q.l_port.(!i) = port && q.l_addr.(!i) < 0)
  do
    incr i
  done;
  if !i < q.ln then !i else -1

(* index of the first store entry of [port]/[seq] still awaiting its
   address ([~no_addr:true]) or its data ([~no_addr:false]), or -1 *)
let find_store t ~seq ~port ~no_addr =
  let q = t.sq in
  let i = ref 0 in
  while
    !i < q.sn
    && not
         (okey_seq q.sk.(!i) = seq
         && q.s_port.(!i) = port
         && if no_addr then q.s_addr.(!i) < 0 else q.s_flags.(!i) land 1 = 0)
  do
    incr i
  done;
  if !i < q.sn then !i else -1

let create ?(trace = Pv_obs.Trace.null) ?(prof = Pv_obs.Prof.null)
    (cfg : config) (pm : Portmap.t) (mem : int array) : Pv_dataflow.Memif.t =
  let n_ports = Array.length pm.Portmap.ports in
  let port_aid, n_arrays = Portmap.array_ids pm in
  let t =
    {
      cfg;
      mem;
      stats = Pv_dataflow.Memif.fresh_stats ();
      now = 0;
      lq =
        {
          lk = Array.make cfg.lq_depth 0;
          l_port = Array.make cfg.lq_depth 0;
          l_usable = Array.make cfg.lq_depth 0;
          l_addr = Array.make cfg.lq_depth (-1);
          l_tok = Array.make cfg.lq_depth (-1);
          ln = 0;
        };
      sq =
        {
          sk = Array.make cfg.sq_depth 0;
          s_port = Array.make cfg.sq_depth 0;
          s_usable = Array.make cfg.sq_depth 0;
          s_addr = Array.make cfg.sq_depth (-1);
          s_val = Array.make cfg.sq_depth 0;
          s_flags = Array.make cfg.sq_depth 0;
          sn = 0;
          min_unk = max_int;
        };
      allocs_this_cycle = 0;
      (* room for a full load queue's requests on every port up front, so
         the rings do not grow mid-run *)
      resp = Array.init n_ports (fun _ -> Ring.create ~stride:3 cfg.lq_depth);
      port_aid;
      reads = Array.make n_arrays 2;
      writes = Array.make n_arrays 1;
      trace;
      prof;
      last_occ = -1;
    }
  in
  let is_store pid = (Portmap.port pm pid).Portmap.kind = Portmap.OStore in
  (* per group: its ambiguous ports in program order and their load/store
     counts, so allocation is array reads only *)
  let gports =
    Array.init pm.Portmap.n_groups (fun g ->
        let ports = Array.of_list (Portmap.group_ports pm g) in
        if Array.length ports > max_pos + 1 then
          invalid_arg "Lsq: ROM position exceeds the 6-bit pack field";
        ports)
  in
  let g_stores =
    Array.map
      (fun ports ->
        Array.fold_left (fun n p -> if is_store p then n + 1 else n) 0 ports)
      gports
  in
  let g_loads =
    Array.mapi (fun g ports -> Array.length ports - g_stores.(g)) gports
  in
  let begin_instance ~seq ~group =
    let ports = gports.(group) in
    let n_loads = g_loads.(group) and n_stores = g_stores.(group) in
    Array.length ports = 0
    ||
    if
      t.allocs_this_cycle >= cfg.alloc_per_cycle
      || t.lq.ln + n_loads > cfg.lq_depth
      || t.sq.sn + n_stores > cfg.sq_depth
    then begin
      t.stats.Pv_dataflow.Memif.stall_full <-
        t.stats.Pv_dataflow.Memif.stall_full + 1;
      false
    end
    else begin
      t.allocs_this_cycle <- t.allocs_this_cycle + 1;
      let usable = t.now + cfg.alloc_delay in
      for pos = 0 to Array.length ports - 1 do
        let pid = ports.(pos) in
        let k = okey ~seq ~pos in
        if is_store pid then begin
          let q = t.sq in
          let i = q.sn in
          q.sk.(i) <- k;
          q.s_port.(i) <- pid;
          q.s_usable.(i) <- usable;
          q.s_addr.(i) <- -1;
          q.s_val.(i) <- 0;
          q.s_flags.(i) <- 0;
          if k < q.min_unk then q.min_unk <- k;
          q.sn <- i + 1
        end
        else begin
          let q = t.lq in
          let i = q.ln in
          q.lk.(i) <- k;
          q.l_port.(i) <- pid;
          q.l_usable.(i) <- usable;
          q.l_addr.(i) <- -1;
          q.l_tok.(i) <- -1;
          q.ln <- i + 1
        end
      done;
      if Pv_obs.Trace.enabled t.trace then
        Pv_obs.Trace.instant t.trace ~tid:Pv_obs.Trace.tid_backend ~ts:t.now
          ~args:[ ("seq", seq); ("loads", n_loads); ("stores", n_stores) ]
          "lsq_alloc";
      note_occupancy t;
      true
    end
  in
  let load_req ~port ~key ~addr =
    let seq = Token.seq key in
    if Portmap.is_ambiguous pm port then begin
      match find_load t ~seq ~port with
      | -1 -> false
      | i ->
          t.lq.l_addr.(i) <- addr;
          t.lq.l_tok.(i) <- key;
          open_slot t ~port ~tok:key;
          t.stats.Pv_dataflow.Memif.loads <- t.stats.Pv_dataflow.Memif.loads + 1;
          Pv_obs.Prof.add prof ~phase:Pv_obs.Prof.phase_mem_service 1;
          true
    end
    else if take t.reads port_aid.(port) then begin
      t.stats.Pv_dataflow.Memif.loads <- t.stats.Pv_dataflow.Memif.loads + 1;
      Pv_obs.Prof.add prof ~phase:Pv_obs.Prof.phase_mem_service 1;
      Ring.push3 t.resp.(port) key (t.now + cfg.mem_latency) t.mem.(addr);
      true
    end
    else begin
      t.stats.Pv_dataflow.Memif.stall_bw <- t.stats.Pv_dataflow.Memif.stall_bw + 1;
      false
    end
  in
  let store_req ~port ~key ~addr ~value =
    let seq = Token.seq key in
    if Portmap.is_ambiguous pm port then begin
      match find_store t ~seq ~port ~no_addr:false with
      | -1 -> false
      | i ->
          let q = t.sq in
          let had_addr = q.s_addr.(i) >= 0 in
          let k = q.sk.(i) in
          q.s_addr.(i) <- addr;
          q.s_val.(i) <- value;
          q.s_flags.(i) <- q.s_flags.(i) lor 1;
          if (not had_addr) && k = q.min_unk then sq_recompute_min q;
          t.stats.Pv_dataflow.Memif.stores <- t.stats.Pv_dataflow.Memif.stores + 1;
          Pv_obs.Prof.add prof ~phase:Pv_obs.Prof.phase_mem_service 1;
          true
    end
    else if take t.writes port_aid.(port) then begin
      t.stats.Pv_dataflow.Memif.stores <- t.stats.Pv_dataflow.Memif.stores + 1;
      Pv_obs.Prof.add prof ~phase:Pv_obs.Prof.phase_mem_service 1;
      t.mem.(addr) <- value;
      true
    end
    else begin
      t.stats.Pv_dataflow.Memif.stall_bw <- t.stats.Pv_dataflow.Memif.stall_bw + 1;
      false
    end
  in
  let op_skip ~port ~key =
    let seq = Token.seq key in
    if not (Portmap.is_ambiguous pm port) then true
    else begin
      t.stats.Pv_dataflow.Memif.fake_tokens <-
        t.stats.Pv_dataflow.Memif.fake_tokens + 1;
      (if is_store port then begin
         match find_store t ~seq ~port ~no_addr:true with
         | -1 -> ()
         | i ->
             let q = t.sq in
             q.s_flags.(i) <- q.s_flags.(i) lor 2;
             if q.sk.(i) = q.min_unk then sq_recompute_min q
       end
       else
         match find_load t ~seq ~port with
         | -1 -> ()
         | i -> lq_remove t.lq i);
      true
    end
  in
  let store_addr ~port ~key ~addr =
    let seq = Token.seq key in
    if Portmap.is_ambiguous pm port then
      match find_store t ~seq ~port ~no_addr:true with
      | -1 -> ()
      | i ->
          let q = t.sq in
          let k = q.sk.(i) in
          q.s_addr.(i) <- addr;
          if k = q.min_unk then sq_recompute_min q
  in
  let load_poll ~port out =
    let q = t.resp.(port) in
    (not (Ring.is_empty q))
    &&
    let ready = Ring.get q 0 1 in
    ready >= 0
    && ready <= t.now
    && begin
         out.Pv_dataflow.Memif.ls_key <- Ring.get q 0 0;
         out.Pv_dataflow.Memif.ls_value <- Ring.get q 0 2;
         Ring.pop q;
         true
       end
  in
  let quiesced () =
    t.lq.ln = 0 && t.sq.sn = 0 && Array.for_all Ring.is_empty t.resp
  in
  {
    Pv_dataflow.Memif.begin_instance;
    alloc_group = (fun ~key:_ ~group:_ -> true);
    load_req;
    load_poll;
    store_req;
    store_addr;
    op_skip;
    poll_squash = (fun () -> None);
    clock = (fun () -> clock t);
    quiesced;
    stats = (fun () -> t.stats);
    (* the LSQ never speculates, so there is no squash/replay machinery
       to drive: backend-level faults are not applicable *)
    inject = (fun _ -> false);
    describe = (fun () -> Printf.sprintf "lsq: LQ=%d SQ=%d" t.lq.ln t.sq.sn);
  }
