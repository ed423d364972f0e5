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

    No entry moves once allocated, as in a hardware queue whose slots
    stay in place: the store queue is a ring (entries leave only at the
    head) and the load queue is a doubly linked list over fixed slots in
    program order (entries leave out of order as loads issue), so a
    removal rewrites a head index or two links.  Order keys pack
    [(seq, ROM pos)] into one int, so the CAM loops compare one int per
    entry and can early-exit: the load-issue ordering check is an O(1)
    compare against the minimum order key among stores with unknown
    addresses, forwarding is a backward scan that stops at the first
    (= youngest older) address match, and the commit-side WAR guard
    stops at the first load at or beyond the committing store's key. *)

open Pv_memory
module Token = Pv_dataflow.Types.Token
module Ring = Pv_dataflow.Ring

type config = {
  depth : int;  (** entries in each of the load and the store queue *)
  alloc_delay : int;  (** cycles before allocated entries become usable *)
  alloc_per_cycle : int;
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
  { depth = 32; alloc_delay = 26; alloc_per_cycle = 1; forwarding = true }

let fast = { plain with alloc_delay = 0; alloc_per_cycle = 2 }

(* Global per-cycle caps.  Per-array BRAM ports are the physical limit on
   loads, so the issue cap is generous; stores commit in program order. *)
let issues_per_cycle = 8
let commits_per_cycle = 4

(* packed program-order key, the same (seq lsl 6) lor pos layout as the
   premature queue's: Eq.-style strictly-older tests are one compare *)
let pos_bits = 6
let max_pos = (1 lsl pos_bits) - 1
let[@inline] okey ~seq ~pos = (seq lsl pos_bits) lor pos
let[@inline] okey_seq k = k asr pos_bits

(* Load queue: [depth] fixed slots of parallel arrays, threaded in
   program order by the [l_next]/[l_prev] links from [l_head] (oldest) to
   [l_tail] (youngest); -1 ends a chain.  Allocation takes a slot from
   the free list (chained through [l_next] from [l_free]) and links it at
   the tail; an issued or skipped load is unlinked in O(1), and no other
   entry moves.  [l_addr] is the address the CAM loops compare; -1 = not
   yet announced.  [l_tok] is the packed token key of the pending
   request, delivered back with the response. *)
type lq = {
  lk : int array;
  l_port : int array;
  l_usable : int array;
  l_addr : int array;
  l_tok : int array;
  l_next : int array;
  l_prev : int array;
  mutable l_head : int;
  mutable l_tail : int;
  mutable l_free : int;
  mutable ln : int;
}

(* Store queue: a ring of parallel arrays whose capacity is [depth]
   rounded up to a power of two ([s_mask] + 1).  Entry [o] in program
   order (0 = oldest) lives in slot [(s_head + o) land s_mask]; the head
   leaves by advancing [s_head], so no entry moves.  [sk] ascends
   strictly along the ring: allocation appends in program order
   ([begin_instance] runs in seq order, ROM positions ascend within a
   group) and entries leave only at the head, so the load-issue search
   can bisect it.  [s_flags] bit 0 = value known, bit 1 = skipped (fake
   token).  [min_unk] caches the minimum order key among non-skipped
   stores whose address is unknown (max_int when none): the load-issue
   ordering check of the CAM loop collapses to one compare against it. *)
type sq = {
  sk : int array;
  s_port : int array;
  s_usable : int array;
  s_addr : int array;
  s_val : int array;
  s_flags : int array;
  s_mask : int;
  mutable s_head : int;
  mutable sn : int;
  mutable min_unk : int;
}

(* the slot of the store [o] entries younger than the head *)
let[@inline] sslot (q : sq) o = (q.s_head + o) land q.s_mask

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
  prof_on : bool;  (* [Prof.enabled prof], an out-of-line call per attempt *)
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

(* unlink slot [i] and return it to the free list; no other entry moves
   and program order is kept by the links *)
let lq_remove (q : lq) i =
  let p = q.l_prev.(i) and n = q.l_next.(i) in
  if p >= 0 then q.l_next.(p) <- n else q.l_head <- n;
  if n >= 0 then q.l_prev.(n) <- p else q.l_tail <- p;
  q.l_next.(i) <- q.l_free;
  q.l_free <- i;
  q.ln <- q.ln - 1

(* link a free slot at the tail (the youngest end) and return it *)
let lq_append (q : lq) =
  let i = q.l_free in
  q.l_free <- q.l_next.(i);
  q.l_prev.(i) <- q.l_tail;
  q.l_next.(i) <- -1;
  if q.l_tail >= 0 then q.l_next.(q.l_tail) <- i else q.l_head <- i;
  q.l_tail <- i;
  q.ln <- q.ln + 1;
  i

let sq_recompute_min (q : sq) =
  let m = ref max_int in
  for o = 0 to q.sn - 1 do
    let i = sslot q o in
    if q.s_flags.(i) land 2 = 0 && q.s_addr.(i) < 0 && q.sk.(i) < !m then
      m := q.sk.(i)
  done;
  q.min_unk <- !m

(* The head leaves skipped or committed, and neither kind counts towards
   [min_unk] (a committing store's address is known), so the cache stands. *)
let sq_remove_head (q : sq) =
  q.s_head <- (q.s_head + 1) land q.s_mask;
  q.sn <- q.sn - 1

(* Offset in [lo, hi) of the first store at or beyond order key [k] ([hi]
   when none): a bisection of the ascending ring.  Top-level, so the
   search allocates no closure. *)
let rec sq_lower_bound (q : sq) k lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    if Array.unsafe_get q.sk (sslot q mid) < k then
      sq_lower_bound q k (mid + 1) hi
    else sq_lower_bound q k lo mid

(* A load may issue when all older stores have known addresses; it forwards
   from the youngest older store with a matching address, if any.  The
   ordering precondition is the O(1) [min_unk] compare; the younger stores
   are skipped by bisection, and the forwarding match is a backward scan
   (youngest older first) that exits at the first address hit.  The CAM
   charge is the hardware's: every younger store the search passes, as
   the linear walk counted them, plus each older store compared. *)
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
      let lo = sq_lower_bound sq k 0 sq.sn in
      let scanned = ref (sq.sn - lo) in
      let j = ref (lo - 1) in
      let found = ref (-1) in
      while !j >= 0 && !found < 0 do
        incr scanned;
        let s = sslot sq !j in
        if sq.s_flags.(s) land 2 = 0 && sq.s_addr.(s) = addr then found := s;
        decr j
      done;
      if t.prof_on then
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
          ~ready_at:(t.now + Pv_dataflow.Memif.mem_latency)
          ~value:t.mem.(addr);
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
   load queue's links run in program order, so the guard walks them from
   the oldest load and stops at the first at or beyond the store's key. *)
let can_commit t =
  let sq = t.sq in
  let h = sq.s_head in
  sq.s_usable.(h) <= t.now
  && sq.s_addr.(h) >= 0
  && sq.s_flags.(h) land 1 = 1
  && begin
       let k = sq.sk.(h) and a = sq.s_addr.(h) in
       let lq = t.lq in
       let scanned = ref 0 in
       let blocked = ref false in
       let i = ref lq.l_head in
       while (not !blocked) && !i >= 0 && lq.lk.(!i) < k do
         incr scanned;
         if lq.l_addr.(!i) < 0 || lq.l_addr.(!i) = a then blocked := true;
         i := lq.l_next.(!i)
       done;
       if t.prof_on then
         Pv_obs.Prof.add t.prof ~phase:Pv_obs.Prof.phase_lsq_cam !scanned;
       not !blocked
     end

let clock t =
  (* issue loads, oldest first, up to the cap; issued entries unlink *)
  let lq = t.lq in
  let issued = ref 0 in
  let i = ref lq.l_head in
  while !i >= 0 && !issued < issues_per_cycle do
    let next = lq.l_next.(!i) in
    if try_issue_load t !i then begin
      incr issued;
      lq_remove lq !i
    end;
    i := next
  done;
  (* drop skipped stores at the head, then commit in order *)
  let committed = ref 0 in
  let continue = ref true in
  while !continue do
    let sq = t.sq in
    let h = sq.s_head in
    if sq.sn = 0 then continue := false
    else if sq.s_flags.(h) land 2 = 2 then sq_remove_head sq
    else if
      !committed < commits_per_cycle
      && can_commit t
      && take t.writes t.port_aid.(sq.s_port.(h))
    then begin
      t.mem.(sq.s_addr.(h)) <- sq.s_val.(h);
      if Pv_obs.Trace.enabled t.trace then
        Pv_obs.Trace.instant t.trace ~tid:Pv_obs.Trace.tid_backend ~ts:t.now
          ~args:[ ("seq", okey_seq sq.sk.(h)); ("addr", sq.s_addr.(h)) ]
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

(* slot of the oldest load entry of [port]/[seq] still awaiting its
   address, or -1 *)
let find_load t ~seq ~port =
  let q = t.lq in
  let i = ref q.l_head in
  while
    !i >= 0
    && not
         (okey_seq q.lk.(!i) = seq && q.l_port.(!i) = port && q.l_addr.(!i) < 0)
  do
    i := q.l_next.(!i)
  done;
  !i

(* slot of the oldest store entry of [port]/[seq] still awaiting its
   address ([~no_addr:true]) or its data ([~no_addr:false]), or -1 *)
let find_store t ~seq ~port ~no_addr =
  let q = t.sq in
  let o = ref 0 in
  while
    !o < q.sn
    &&
    let i = sslot q !o in
    not
      (okey_seq q.sk.(i) = seq
      && q.s_port.(i) = port
      && if no_addr then q.s_addr.(i) < 0 else q.s_flags.(i) land 1 = 0)
  do
    incr o
  done;
  if !o < q.sn then sslot q !o else -1

let create ?(trace = Pv_obs.Trace.null) ?(prof = Pv_obs.Prof.null)
    (cfg : config) (pm : Portmap.t) (mem : int array) : Pv_dataflow.Memif.t =
  let n_ports = Array.length pm.Portmap.ports in
  let port_aid, n_arrays = Portmap.array_ids pm in
  (* the store ring's capacity: [depth] rounded up to a power of two *)
  let rec pow2 n = if n >= cfg.depth then n else pow2 (2 * n) in
  let ring = pow2 1 in
  let t =
    {
      cfg;
      mem;
      stats = Pv_dataflow.Memif.fresh_stats ();
      now = 0;
      lq =
        {
          lk = Array.make cfg.depth 0;
          l_port = Array.make cfg.depth 0;
          l_usable = Array.make cfg.depth 0;
          l_addr = Array.make cfg.depth (-1);
          l_tok = Array.make cfg.depth (-1);
          (* every slot free, chained in slot order *)
          l_next =
            Array.init cfg.depth (fun i -> if i + 1 < cfg.depth then i + 1 else -1);
          l_prev = Array.make cfg.depth (-1);
          l_head = -1;
          l_tail = -1;
          l_free = 0;
          ln = 0;
        };
      sq =
        {
          sk = Array.make ring 0;
          s_port = Array.make ring 0;
          s_usable = Array.make ring 0;
          s_addr = Array.make ring (-1);
          s_val = Array.make ring 0;
          s_flags = Array.make ring 0;
          s_mask = ring - 1;
          s_head = 0;
          sn = 0;
          min_unk = max_int;
        };
      allocs_this_cycle = 0;
      (* room for a full load queue's requests on every port up front, so
         the rings do not grow mid-run *)
      resp = Array.init n_ports (fun _ -> Ring.create ~stride:3 cfg.depth);
      port_aid;
      reads = Array.make n_arrays 2;
      writes = Array.make n_arrays 1;
      trace;
      prof;
      prof_on = Pv_obs.Prof.enabled prof;
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
  (* a group one queue cannot hold would be refused at every
     [begin_instance] and the run would end in a deadlock *)
  Array.iteri
    (fun g n_loads ->
      let n_stores = g_stores.(g) in
      if n_loads > cfg.depth || n_stores > cfg.depth then
        invalid_arg
          (Printf.sprintf
             "Lsq: depth %d is smaller than group %d's %s (%d loads, %d \
              stores); an instance of the group could never be allocated"
             cfg.depth g
             (if n_loads > cfg.depth then Printf.sprintf "%d loads" n_loads
              else Printf.sprintf "%d stores" n_stores)
             n_loads n_stores))
    g_loads;
  let begin_instance ~seq ~group =
    let ports = gports.(group) in
    let n_loads = g_loads.(group) and n_stores = g_stores.(group) in
    Array.length ports = 0
    ||
    if
      t.allocs_this_cycle >= cfg.alloc_per_cycle
      || t.lq.ln + n_loads > cfg.depth
      || t.sq.sn + n_stores > cfg.depth
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
          let i = sslot q q.sn in
          q.sk.(i) <- k;
          q.s_port.(i) <- pid;
          q.s_usable.(i) <- usable;
          q.s_addr.(i) <- -1;
          q.s_val.(i) <- 0;
          q.s_flags.(i) <- 0;
          if k < q.min_unk then q.min_unk <- k;
          q.sn <- q.sn + 1
        end
        else begin
          let q = t.lq in
          let i = lq_append q in
          q.lk.(i) <- k;
          q.l_port.(i) <- pid;
          q.l_usable.(i) <- usable;
          q.l_addr.(i) <- -1;
          q.l_tok.(i) <- -1
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
      Ring.push3 t.resp.(port) key
        (t.now + Pv_dataflow.Memif.mem_latency)
        t.mem.(addr);
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
