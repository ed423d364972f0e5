(** The premature queue of Sec. IV-B / Fig. 4.

    A circular buffer with head and tail pointers.  The tail advances when
    a new premature operation is recorded; the head advances when the
    oldest operations are validated and committed.  Pipeline squashes mark
    entries invalid in place (a valid bit, as real hardware would), and the
    head simply skips them — invalidated slots still occupy capacity until
    the head passes, which is what makes a too-shallow queue stall the
    pipeline.

    Storage is four parallel int arrays (packed program-order key, packed
    port/kind/valid metadata, index, value) rather than an array of boxed
    records: the arbiter compares fields, never whole records, and a
    record per premature operation is minor-heap traffic on the busiest
    path of the whole simulator.  On top of the arrival-ordered buffer the
    queue maintains two {e kind views} — dense arrays of the slots holding
    valid loads and valid stores — mirroring the CAM banks a hardware
    arbiter would search: an arriving store only ever accuses loads
    (Eq. 3) and the load gate only ever looks for stores, so each check
    touches exactly the records of the opposite kind instead of the whole
    queue.  The boxed {!entry} record survives as a materialised view for
    tests, dumps and fault hooks. *)

type entry = {
  e_seq : int;  (** iteration (body-instance) number: [iter] of Eq. 1 *)
  e_pos : int;  (** ROM position within the group (same-iteration order) *)
  e_port : int;
  e_kind : Pv_memory.Portmap.op_kind;  (** [Op] of Eq. 1 *)
  e_index : int;  (** target address: [index] of Eq. 1 *)
  e_value : int;  (** loaded or to-be-stored value: [value] of Eq. 1 *)
  mutable e_valid : bool;
}

(* --- packed program-order key -------------------------------------------
   (seq, ROM position) in one word, so the arbiter's Eq. 2 comparison —
   strictly-older in (iteration, ROM position) lexicographic order — is a
   single integer compare.  Six position bits cover the 62-port arrival-
   bitmask limit the backend already enforces. *)

let pos_bits = 6
let max_pos = (1 lsl pos_bits) - 1
let[@inline] okey ~seq ~pos = (seq lsl pos_bits) lor pos
let[@inline] okey_seq k = k asr pos_bits
let[@inline] okey_pos k = k land max_pos

(* metadata word: bit 0 = valid, bit 1 = store?, remaining bits = port *)
let[@inline] m_valid m = m land 1 = 1
let[@inline] m_store m = m land 2 = 2
let[@inline] m_port m = m asr 2

let meta_of ~port ~kind =
  (port lsl 2)
  lor (match (kind : Pv_memory.Portmap.op_kind) with
      | Pv_memory.Portmap.OStore -> 2
      | Pv_memory.Portmap.OLoad -> 0)
  lor 1

type t = {
  depth : int;
  collapse : bool;
      (** reclaim interior retirees (valid-bit shift structure); without it
          only head-adjacent slots free — the naive Fig. 4 pointer queue,
          kept as an ablation that demonstrates fragmentation wedging *)
  key : int array;  (** slot -> packed (seq, pos); see {!okey} *)
  meta : int array;  (** slot -> packed (port, kind, valid); 0 when free *)
  index : int array;
  value : int array;
  vpos : int array;  (** slot -> position inside its kind view *)
  v_load : int array;  (** slots of valid load records, unordered *)
  v_store : int array;  (** slots of valid store records, unordered *)
  mutable n_load : int;
  mutable n_store : int;
  mutable head : int;
  mutable tail : int;
  mutable count : int;  (** occupied slots, including invalidated ones *)
  mutable dead : int;
      (** invalidated entries still occupying slots; lets {!compact} — which
          the backend calls every cycle — exit in O(1) on the common
          nothing-retired cycle *)
}

let create ?(collapse = true) depth =
  if depth <= 0 then invalid_arg "Premature_queue.create: depth must be > 0";
  {
    depth;
    collapse;
    key = Array.make depth 0;
    meta = Array.make depth 0;
    index = Array.make depth 0;
    value = Array.make depth 0;
    vpos = Array.make depth 0;
    v_load = Array.make depth 0;
    v_store = Array.make depth 0;
    n_load = 0;
    n_store = 0;
    head = 0;
    tail = 0;
    count = 0;
    dead = 0;
  }

let is_full t = t.count = t.depth
let is_empty t = t.count = 0
let occupancy t = t.count

(** Fig. 4 state: [`Normal] when the live region does not wrap, [`Wrapped]
    when it does, [`Full] when head = tail with data. *)
let state t =
  if is_full t then `Full
  else if is_empty t then `Empty
  else if t.head < t.tail then `Normal
  else `Wrapped

exception Full

(* kind-view bookkeeping: each valid slot lives in exactly one view, at
   [vpos]; removal swaps the last view member into the vacated position,
   so both directions are O(1) *)

let view_add t slot m =
  if m_store m then begin
    t.v_store.(t.n_store) <- slot;
    t.vpos.(slot) <- t.n_store;
    t.n_store <- t.n_store + 1
  end
  else begin
    t.v_load.(t.n_load) <- slot;
    t.vpos.(slot) <- t.n_load;
    t.n_load <- t.n_load + 1
  end

(* clear the valid bit of a currently valid slot and leave its view *)
let invalidate t slot =
  let m = t.meta.(slot) in
  t.meta.(slot) <- m land lnot 1;
  (if m_store m then begin
     let last = t.n_store - 1 in
     let p = t.vpos.(slot) in
     let moved = t.v_store.(last) in
     t.v_store.(p) <- moved;
     t.vpos.(moved) <- p;
     t.n_store <- last
   end
   else begin
     let last = t.n_load - 1 in
     let p = t.vpos.(slot) in
     let moved = t.v_load.(last) in
     t.v_load.(p) <- moved;
     t.vpos.(moved) <- p;
     t.n_load <- last
   end);
  t.dead <- t.dead + 1

(* admit at the tail; caller has checked capacity.  Returns the slot. *)
let admit t ~seq ~pos ~port ~kind ~index ~value =
  if pos land lnot max_pos <> 0 then
    invalid_arg "Premature_queue: ROM position exceeds the 6-bit pack field";
  let i = t.tail in
  t.key.(i) <- okey ~seq ~pos;
  let m = meta_of ~port ~kind in
  t.meta.(i) <- m;
  t.index.(i) <- index;
  t.value.(i) <- value;
  view_add t i m;
  t.tail <- (if t.tail + 1 = t.depth then 0 else t.tail + 1);
  t.count <- t.count + 1;
  i

(** Allocation-free admission: [false] when the queue is full, so callers
    turn a full queue into ordinary backpressure.  The production (backend)
    entry point — the boxed variants below exist for tests and demos. *)
let record t ~seq ~pos ~port ~kind ~index ~value =
  if is_full t then false
  else begin
    ignore (admit t ~seq ~pos ~port ~kind ~index ~value : int);
    true
  end

(* materialise the boxed view of a slot *)
let entry_of t i =
  let k = t.key.(i) and m = t.meta.(i) in
  {
    e_seq = okey_seq k;
    e_pos = okey_pos k;
    e_port = m_port m;
    e_kind =
      (if m_store m then Pv_memory.Portmap.OStore else Pv_memory.Portmap.OLoad);
    e_index = t.index.(i);
    e_value = t.value.(i);
    e_valid = m_valid m;
  }

let push_exn t ~seq ~pos ~port ~kind ~index ~value =
  if is_full t then raise Full;
  entry_of t (admit t ~seq ~pos ~port ~kind ~index ~value)

(** Non-raising [push_exn]: [None] when the queue is full. *)
let push_opt t ~seq ~pos ~port ~kind ~index ~value =
  if is_full t then None
  else Some (push_exn t ~seq ~pos ~port ~kind ~index ~value)

(* a slot index one lap past the end, folded back (a top-level function: a
   local [wrap] capturing [t] would be a closure allocated per compaction) *)
let[@inline] wrap t i = if i >= t.depth then i - t.depth else i

(** Reclaim invalidated slots.  Retirement follows program order while the
    queue is in arrival order, so freed slots can sit behind younger live
    entries; the queue collapses them (a shift/valid-bit structure, as load
    and store queues do) — without collapsing, fragmentation eventually
    wedges the oldest instance out of the queue and deadlocks the
    pipeline. *)
let compact t =
  if t.dead > 0 then begin
    (* the head pointer advances circularly past retired entries, as in
       Fig. 4 ... *)
    let continue = ref true in
    while !continue && t.count > 0 do
      if m_valid t.meta.(t.head) then continue := false
      else begin
        t.meta.(t.head) <- 0;
        t.head <- (if t.head + 1 = t.depth then 0 else t.head + 1);
        t.count <- t.count - 1;
        t.dead <- t.dead - 1
      end
    done;
    (* ... and interior gaps collapse towards the head.  Moving a slot
       drags its kind-view membership along (the view records the slot by
       number); survivors ahead of the first gap stay put, so the common
       path writes nothing. *)
    if t.collapse && t.dead > 0 then begin
      let r = ref t.head and w = ref t.head and live = ref 0 in
      for _ = 1 to t.count do
        let m = t.meta.(!r) in
        if m_valid m then begin
          if !w <> !r then begin
            t.key.(!w) <- t.key.(!r);
            t.meta.(!w) <- m;
            t.index.(!w) <- t.index.(!r);
            t.value.(!w) <- t.value.(!r);
            let p = t.vpos.(!r) in
            t.vpos.(!w) <- p;
            (if m_store m then t.v_store else t.v_load).(p) <- !w
          end;
          incr live;
          w := wrap t (!w + 1)
        end;
        r := wrap t (!r + 1)
      done;
      let n_clear = t.count - !live in
      let c = ref !w in
      for _ = 1 to n_clear do
        t.meta.(!c) <- 0;
        c := wrap t (!c + 1)
      done;
      t.count <- !live;
      t.tail <- !w;
      t.dead <- 0
    end
  end

(** Iterate over valid entries from head to tail (arrival order).  Each
    visit materialises a boxed {!entry}, so this is for commit, dump and
    test paths; the arbiter reads the kind views and flat arrays
    directly. *)
let iter f t =
  let i = ref t.head in
  for _ = 1 to t.count do
    if m_valid t.meta.(!i) then f (entry_of t !i);
    incr i;
    if !i = t.depth then i := 0
  done

let fold f acc t =
  let acc = ref acc in
  iter (fun e -> acc := f !acc e) t;
  !acc

let exists p t = fold (fun found e -> found || p e) false t
let to_list t = List.rev (fold (fun acc e -> e :: acc) [] t)

(** Invalidate every valid entry satisfying [p]; returns the retired
    entries (so callers can release per-port credits). *)
let retire_if t p =
  let retired = ref [] in
  let i = ref t.head in
  for _ = 1 to t.count do
    if m_valid t.meta.(!i) then begin
      let e = entry_of t !i in
      if p e then begin
        e.e_valid <- false;
        invalidate t !i;
        retired := e :: !retired
      end
    end;
    incr i;
    if !i = t.depth then i := 0
  done;
  compact t;
  List.rev !retired

(* shared skeleton of the allocation-free retirement sweeps: walk ONE kind
   view backwards, invalidating matches.  Removal swap-fills the vacated
   position from the current view end — an index this backward walk has
   already visited and retained — so no member is skipped or revisited.
   The predicate is a mode selector rather than a closure: a
   [fun k m -> ...] capturing [seq] would put one minor-heap closure on
   every backend cycle (the compiler only unboxes non-escaping locals,
   not function arguments).  Retirees are reported in view order, not
   arrival order; [on_port] only releases per-port credits, which is
   order-insensitive.  Returns the retiree count without compacting —
   the public wrappers compact once. *)
let[@inline] sweep_view t v n0 ~seq ~mode ~on_port =
  let n = ref 0 in
  let i = ref (n0 - 1) in
  while !i >= 0 do
    let s = Array.unsafe_get v !i in
    let sq = okey_seq t.key.(s) in
    let hit =
      match mode with 0 -> sq < seq | 1 -> sq = seq | _ -> sq >= seq
    in
    if hit then begin
      on_port (m_port t.meta.(s));
      invalidate t s;
      incr n
    end;
    decr i
  done;
  !n

(** Retire every valid {e load} with [e_seq < seq] — the store-arrival
    frontier sweep, called only on cycles where the frontier moved or a
    late load arrived behind it.  Walks the load view only (the records
    actually scanned, which is what the profiler charges), not the whole
    occupied region.  [on_port] fires once per retiree so the caller can
    release per-port credits without a materialised list. *)
let retire_loads_below t ~seq ~on_port =
  let n = sweep_view t t.v_load t.n_load ~seq ~mode:0 ~on_port in
  if n > 0 then compact t;
  n

(** Retire all valid entries of exactly [seq] (commit of an instance),
    reporting ports to [on_port]. *)
let retire_eq t ~seq ~on_port =
  let n = sweep_view t t.v_load t.n_load ~seq ~mode:1 ~on_port in
  let n = n + sweep_view t t.v_store t.n_store ~seq ~mode:1 ~on_port in
  if n > 0 then compact t;
  n

(** Retire all valid entries with [e_seq >= seq] (pipeline squash),
    reporting ports to [on_port]. *)
let retire_ge t ~seq ~on_port =
  let n = sweep_view t t.v_load t.n_load ~seq ~mode:2 ~on_port in
  let n = n + sweep_view t t.v_store t.n_store ~seq ~mode:2 ~on_port in
  if n > 0 then compact t;
  n

(** Invalidate all valid entries with [e_seq >= seq] (pipeline squash). *)
let invalidate_from t ~seq = ignore (retire_ge t ~seq ~on_port:ignore : int)

(** Invalidate all valid entries of exactly [seq] (commit of an instance). *)
let retire_seq t ~seq = ignore (retire_eq t ~seq ~on_port:ignore : int)

(* --- fault-injection hooks ---------------------------------------------- *)

(* buffer index of the [n]-th valid entry in arrival order *)
let nth_valid_idx t n =
  let found = ref (-1) in
  let seen = ref 0 in
  (try
     for k = 0 to t.count - 1 do
       let i = (t.head + k) mod t.depth in
       if m_valid t.meta.(i) then begin
         if !seen = n then begin
           found := i;
           raise Exit
         end;
         incr seen
       end
     done
   with Exit -> ());
  !found

(** The [n]-th valid entry in arrival order, if any. *)
let nth_valid t n =
  match nth_valid_idx t n with -1 -> None | i -> Some (entry_of t i)

(** Model an SEU in the value field of the [slot]-th live entry: its value
    gets [mask] xor-ed in, in place.  Returns the {e original} entry,
    [None] when no such live entry exists. *)
let corrupt t ~slot ~mask =
  match nth_valid_idx t slot with
  | -1 -> None
  | i ->
      let e = entry_of t i in
      t.value.(i) <- t.value.(i) lxor mask;
      Some e

(** Model an SEU in the valid bit of the [slot]-th live entry: the record
    vanishes as if never made.  Returns the lost entry so the caller can
    repair its own bookkeeping (or deliberately not, for a silent fault). *)
let drop t ~slot =
  match nth_valid_idx t slot with
  | -1 -> None
  | i ->
      let e = entry_of t i in
      e.e_valid <- false;
      invalidate t i;
      compact t;
      Some e
