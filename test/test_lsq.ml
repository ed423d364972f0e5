(* Behavioural tests for the LSQ backends, driving the Memif contract
   directly (allocation, ordering, forwarding, commit, backpressure). *)

open Pv_memory
module MI = Pv_dataflow.Memif

let tkey s = Pv_dataflow.Types.Token.make ~seq:s ~epoch:0

(* one ambiguous array "x" with a load (port 0) and a store (port 1) in one
   group, plus a direct load port 2 on array "y" *)
let portmap () =
  {
    Portmap.ports =
      [|
        { Portmap.id = 0; kind = Portmap.OLoad; array = "x"; instance = Some 0; conditional = false };
        { Portmap.id = 1; kind = Portmap.OStore; array = "x"; instance = Some 0; conditional = false };
        { Portmap.id = 2; kind = Portmap.OLoad; array = "y"; instance = None; conditional = false };
      |];
    n_groups = 1;
    n_instances = 1;
    rom = [| [| [| 0; 1 |] |] |];
  }

let quick_cfg =
  {
    Pv_lsq.Lsq.depth = 4;
    alloc_delay = 0;
    alloc_per_cycle = 2;
    forwarding = true;
  }

let fresh ?(cfg = quick_cfg) () =
  let mem = Array.make 32 0 in
  Array.iteri (fun i _ -> mem.(i) <- 100 + i) mem;
  let b = Pv_lsq.Lsq.create cfg (portmap ()) mem in
  (mem, b)

let step (b : MI.t) = b.MI.clock ()

let rec poll_until ?(limit = 20) (b : MI.t) ~port =
  match MI.poll b ~port with
  | Some (key, v) -> (Pv_dataflow.Types.Token.seq key, v)
  | None ->
      if limit = 0 then Alcotest.fail "no response within limit";
      step b;
      poll_until ~limit:(limit - 1) b ~port

let test_load_needs_allocation () =
  let _, b = fresh () in
  Alcotest.(check bool) "unallocated load refused" false
    (b.MI.load_req ~port:0 ~key:(tkey 0) ~addr:3);
  Alcotest.(check bool) "allocation" true (b.MI.begin_instance ~seq:0 ~group:0);
  Alcotest.(check bool) "allocated load accepted" true
    (b.MI.load_req ~port:0 ~key:(tkey 0) ~addr:3)

let test_load_reads_memory () =
  let _, b = fresh () in
  ignore (b.MI.begin_instance ~seq:0 ~group:0);
  ignore (b.MI.load_req ~port:0 ~key:(tkey 0) ~addr:5);
  (* the load cannot issue while the same-group older... the store of seq 0
     is ROM-later, so it does not block; response arrives after latency *)
  let seq, v = poll_until b ~port:0 in
  Alcotest.(check (pair int int)) "value from memory" (0, 105) (seq, v)

let test_load_waits_for_store_address () =
  let _, b = fresh () in
  ignore (b.MI.begin_instance ~seq:0 ~group:0);
  ignore (b.MI.begin_instance ~seq:1 ~group:0);
  (* seq 1's load arrives while seq 0's store address is unknown *)
  ignore (b.MI.load_req ~port:0 ~key:(tkey 1) ~addr:5);
  step b;
  step b;
  step b;
  Alcotest.(check bool) "no response while ordering unknown" true
    (MI.poll b ~port:0 = None);
  (* resolve the older load and store of seq 0 at a different address *)
  ignore (b.MI.load_req ~port:0 ~key:(tkey 0) ~addr:9);
  b.MI.store_addr ~port:1 ~key:(tkey 0) ~addr:7;
  step b;
  step b;
  (* responses come back in request order per port: seq 1 asked first *)
  let s0, v0 = poll_until b ~port:0 in
  Alcotest.(check (pair int int)) "first requester first" (1, 105) (s0, v0);
  let s1, v1 = poll_until b ~port:0 in
  Alcotest.(check (pair int int)) "then the older load" (0, 109) (s1, v1)

let test_store_to_load_forwarding () =
  let mem, b = fresh () in
  ignore (b.MI.begin_instance ~seq:0 ~group:0);
  ignore (b.MI.begin_instance ~seq:1 ~group:0);
  ignore (b.MI.load_req ~port:0 ~key:(tkey 0) ~addr:2);
  (* seq 0 stores 999 to address 5; seq 1 loads address 5 before commit *)
  Alcotest.(check bool) "store accepted" true
    (b.MI.store_req ~port:1 ~key:(tkey 0) ~addr:5 ~value:999);
  ignore (b.MI.load_req ~port:0 ~key:(tkey 1) ~addr:5);
  ignore (poll_until b ~port:0);
  let _, v = poll_until b ~port:0 in
  Alcotest.(check int) "forwarded value" 999 v;
  (* and the commit eventually lands in memory; the unused store entry of
     instance 1 is cancelled so the queue can drain *)
  Alcotest.(check bool) "cancel seq 1 store" true (b.MI.op_skip ~port:1 ~key:(tkey 1));
  let rec drain n = if n > 0 then begin step b; drain (n - 1) end in
  drain 10;
  Alcotest.(check int) "committed" 999 mem.(5);
  Alcotest.(check bool) "quiesced" true (b.MI.quiesced ())

let test_commit_in_order () =
  let mem, b = fresh () in
  ignore (b.MI.begin_instance ~seq:0 ~group:0);
  ignore (b.MI.begin_instance ~seq:1 ~group:0);
  ignore (b.MI.load_req ~port:0 ~key:(tkey 0) ~addr:0);
  ignore (b.MI.load_req ~port:0 ~key:(tkey 1) ~addr:0);
  (* both stores hit the same address; the younger arrives first *)
  ignore (b.MI.store_req ~port:1 ~key:(tkey 1) ~addr:6 ~value:222);
  step b;
  Alcotest.(check int) "younger store not committed first" 106 mem.(6);
  ignore (b.MI.store_req ~port:1 ~key:(tkey 0) ~addr:6 ~value:111);
  let rec drain n = if n > 0 then begin step b; drain (n - 1) end in
  drain 10;
  Alcotest.(check int) "final value is the younger's" 222 mem.(6)

let test_alloc_backpressure () =
  let cfg = { quick_cfg with Pv_lsq.Lsq.alloc_per_cycle = 8 } in
  let _, b = fresh ~cfg () in
  (* depth = 4: five allocations cannot all fit *)
  let accepted = ref 0 in
  for s = 0 to 5 do
    if b.MI.begin_instance ~seq:s ~group:0 then incr accepted
  done;
  Alcotest.(check int) "limited by queue depth" 4 !accepted

let test_alloc_per_cycle_limit () =
  let cfg = { quick_cfg with Pv_lsq.Lsq.alloc_per_cycle = 1 } in
  let _, b = fresh ~cfg () in
  Alcotest.(check bool) "first" true (b.MI.begin_instance ~seq:0 ~group:0);
  Alcotest.(check bool) "second in same cycle refused" false
    (b.MI.begin_instance ~seq:1 ~group:0);
  step b;
  Alcotest.(check bool) "accepted next cycle" true
    (b.MI.begin_instance ~seq:1 ~group:0)

let test_alloc_delay_gates_issue () =
  let cfg = { quick_cfg with Pv_lsq.Lsq.alloc_delay = 6 } in
  let _, b = fresh ~cfg () in
  ignore (b.MI.begin_instance ~seq:0 ~group:0);
  ignore (b.MI.load_req ~port:0 ~key:(tkey 0) ~addr:5);
  for _ = 1 to 4 do step b done;
  Alcotest.(check bool) "not usable yet" true (MI.poll b ~port:0 = None);
  let _, v = poll_until b ~port:0 in
  Alcotest.(check int) "eventually served" 105 v

let test_op_skip_store () =
  let mem, b = fresh () in
  ignore (b.MI.begin_instance ~seq:0 ~group:0);
  ignore (b.MI.load_req ~port:0 ~key:(tkey 0) ~addr:1);
  Alcotest.(check bool) "skip accepted" true (b.MI.op_skip ~port:1 ~key:(tkey 0));
  let rec drain n = if n > 0 then begin step b; drain (n - 1) end in
  drain 8;
  ignore (poll_until b ~port:0);
  Alcotest.(check bool) "quiesced without a store" true (b.MI.quiesced ());
  Alcotest.(check int) "memory untouched" 101 mem.(1)

let test_direct_port_bandwidth () =
  let _, b = fresh () in
  Alcotest.(check bool) "first direct read" true
    (b.MI.load_req ~port:2 ~key:(tkey 0) ~addr:1);
  Alcotest.(check bool) "second direct read same cycle" true
    (b.MI.load_req ~port:2 ~key:(tkey 1) ~addr:2);
  Alcotest.(check bool) "third exceeds dual-port budget" false
    (b.MI.load_req ~port:2 ~key:(tkey 2) ~addr:3);
  step b;
  Alcotest.(check bool) "budget refilled" true
    (b.MI.load_req ~port:2 ~key:(tkey 2) ~addr:3)

let test_responses_in_port_order () =
  (* responses must come back in request order even when issue reorders *)
  let _, b = fresh () in
  ignore (b.MI.begin_instance ~seq:0 ~group:0);
  ignore (b.MI.begin_instance ~seq:1 ~group:0);
  (* older load blocked by unknown store address; younger load free *)
  ignore (b.MI.load_req ~port:0 ~key:(tkey 0) ~addr:5);
  b.MI.store_addr ~port:1 ~key:(tkey 0) ~addr:5;
  (* seq 0's load now matches its own... no: same-seq store is ROM-later,
     so seq 0's load issues from memory; seq 1's load hits the pending
     store with no value -> must wait, yet was requested second *)
  ignore (b.MI.load_req ~port:0 ~key:(tkey 1) ~addr:5);
  let s0, _ = poll_until b ~port:0 in
  Alcotest.(check int) "first response is seq 0" 0 s0;
  ignore (b.MI.store_req ~port:1 ~key:(tkey 0) ~addr:5 ~value:31);
  let s1, v1 = poll_until b ~port:0 in
  Alcotest.(check (pair int int)) "second is seq 1, forwarded" (1, 31) (s1, v1)

(* [n] ambiguous ports of array "x" in one group, loads and stores
   alternating, or all of kind [only] *)
let wide_portmap ?only n =
  {
    Portmap.ports =
      Array.init n (fun id ->
          {
            Portmap.id;
            kind =
              (match only with
              | Some k -> k
              | None -> if id mod 2 = 0 then Portmap.OLoad else Portmap.OStore);
            array = "x";
            instance = Some 0;
            conditional = false;
          });
    n_groups = 1;
    n_instances = 1;
    rom = [| [| Array.init n Fun.id |] |];
  }

(* order keys pack the ROM position into 6 bits: a 64-port group
   (positions 0-63) allocates, a 65-port one is rejected at construction *)
let test_rom_position_limit () =
  let cfg = { quick_cfg with Pv_lsq.Lsq.depth = 64 } in
  let b = Pv_lsq.Lsq.create cfg (wide_portmap 64) (Array.make 8 0) in
  Alcotest.(check bool) "64-port group allocates" true
    (b.MI.begin_instance ~seq:0 ~group:0);
  Alcotest.check_raises "65-port group"
    (Invalid_argument "Lsq: ROM position exceeds the 6-bit pack field")
    (fun () ->
      ignore (Pv_lsq.Lsq.create cfg (wide_portmap 65) (Array.make 8 0)))

(* a group with more loads (or stores) than the queue has entries could
   never be allocated: construction rejects it instead of leaving every
   [begin_instance] refused until the run deadlocks *)
let test_group_exceeds_depth () =
  let mem = Array.make 8 0 in
  let b = Pv_lsq.Lsq.create quick_cfg (wide_portmap ~only:Portmap.OLoad 4) mem in
  Alcotest.(check bool) "4 loads fit depth 4" true
    (b.MI.begin_instance ~seq:0 ~group:0);
  Alcotest.check_raises "5 loads at depth 4"
    (Invalid_argument
       "Lsq: depth 4 is smaller than group 0's 5 loads (5 loads, 0 stores); \
        an instance of the group could never be allocated")
    (fun () ->
      ignore
        (Pv_lsq.Lsq.create quick_cfg (wide_portmap ~only:Portmap.OLoad 5) mem));
  Alcotest.check_raises "5 stores at depth 4"
    (Invalid_argument
       "Lsq: depth 4 is smaller than group 0's 5 stores (0 loads, 5 stores); \
        an instance of the group could never be allocated")
    (fun () ->
      ignore
        (Pv_lsq.Lsq.create quick_cfg (wide_portmap ~only:Portmap.OStore 5) mem))

(* The CAM charge of one load-issue attempt: one [lsq_cam] unit per store
   entry the search walks, younger stores included.  One ambiguous array
   "x" with a load-only group 0 and a store-only group 1, so each body
   instance allocates one entry and instance order is queue order.
   [stores] lists the instances allocated as stores, each with its
   announced address and optional value; [load] is the load's instance
   and address.  Stores without a value never reach the commit-side WAR
   guard, and a committing store finds the issued load already gone, so
   every charge below is the load's own. *)
let cam_portmap =
  {
    Portmap.ports =
      [|
        { Portmap.id = 0; kind = Portmap.OLoad; array = "x"; instance = Some 0; conditional = false };
        { Portmap.id = 1; kind = Portmap.OStore; array = "x"; instance = Some 0; conditional = false };
      |];
    n_groups = 2;
    n_instances = 1;
    rom = [| [| [| 0 |]; [| 1 |] |] |];
  }

let cam_fixture ~stores ~load:(lseq, laddr) =
  let prof = Pv_obs.Prof.create () in
  let cfg = { quick_cfg with Pv_lsq.Lsq.depth = 8; alloc_per_cycle = 8 } in
  let b = Pv_lsq.Lsq.create ~prof cfg cam_portmap (Array.init 32 (fun i -> 100 + i)) in
  let last = List.fold_left (fun m (s, _, _) -> max m s) lseq stores in
  for s = 0 to last do
    let group = if s = lseq then 0 else 1 in
    if s = lseq || List.exists (fun (t, _, _) -> t = s) stores then
      Alcotest.(check bool) "allocated" true (b.MI.begin_instance ~seq:s ~group)
  done;
  List.iter
    (fun (s, addr, value) ->
      match (addr, value) with
      | None, _ -> ()
      | Some addr, None -> b.MI.store_addr ~port:1 ~key:(tkey s) ~addr
      | Some addr, Some value ->
          Alcotest.(check bool) "store accepted" true
            (b.MI.store_req ~port:1 ~key:(tkey s) ~addr ~value))
    stores;
  Alcotest.(check bool) "load accepted" true
    (b.MI.load_req ~port:0 ~key:(tkey lseq) ~addr:laddr);
  let cam () = (Pv_obs.Prof.phase_totals prof).(Pv_obs.Prof.phase_lsq_cam) in
  (* one clock = one issue attempt; its CAM charge *)
  let attempt () =
    let c0 = cam () in
    step b;
    cam () - c0
  in
  (b, attempt)

let check_stats name (b : MI.t) ~forwarded ~stall_order =
  let st = b.MI.stats () in
  Alcotest.(check (pair int int))
    (name ^ ": forwarded, stall_order")
    (forwarded, stall_order)
    (st.MI.forwarded, st.MI.stall_order)

let test_cam_charges () =
  let issued name (b : MI.t) ~value =
    let _, v = poll_until b ~port:0 in
    Alcotest.(check int) (name ^ ": value") value v
  in
  (* an empty store queue: nothing to search *)
  let b, attempt = cam_fixture ~stores:[] ~load:(0, 5) in
  Alcotest.(check int) "empty SQ: charge" 0 (attempt ());
  check_stats "empty SQ" b ~forwarded:0 ~stall_order:0;
  issued "empty SQ" b ~value:105;
  (* older than every store: the younger stores are walked, no match *)
  let b, attempt =
    cam_fixture ~stores:[ (1, None, None); (2, Some 5, None); (3, None, None) ]
      ~load:(0, 5)
  in
  Alcotest.(check int) "oldest load: charge" 3 (attempt ());
  check_stats "oldest load" b ~forwarded:0 ~stall_order:0;
  issued "oldest load" b ~value:105;
  (* younger than every store, no address match: all stores charged *)
  let b, attempt =
    cam_fixture
      ~stores:[ (0, Some 10, None); (1, Some 11, None); (2, Some 12, None) ]
      ~load:(3, 5)
  in
  Alcotest.(check int) "no match: charge" 3 (attempt ());
  check_stats "no match" b ~forwarded:0 ~stall_order:0;
  issued "no match" b ~value:105;
  (* the match is the oldest store: the walk reaches the queue head *)
  let b, attempt =
    cam_fixture
      ~stores:[ (0, Some 5, Some 77); (1, Some 11, None); (2, Some 12, None) ]
      ~load:(3, 5)
  in
  Alcotest.(check int) "match at the oldest store: charge" 3 (attempt ());
  check_stats "match at the oldest store" b ~forwarded:1 ~stall_order:0;
  issued "match at the oldest store" b ~value:77;
  (* the youngest older match has no value yet: the load waits, and every
     retry pays the same walk until the value arrives and forwards *)
  let b, attempt =
    cam_fixture
      ~stores:[ (0, Some 11, None); (1, Some 5, None); (2, Some 12, None) ]
      ~load:(3, 5)
  in
  Alcotest.(check int) "value unknown: charge" 2 (attempt ());
  check_stats "value unknown" b ~forwarded:0 ~stall_order:1;
  Alcotest.(check int) "value unknown, retry: charge" 2 (attempt ());
  check_stats "value unknown, retry" b ~forwarded:0 ~stall_order:2;
  ignore (b.MI.store_req ~port:1 ~key:(tkey 1) ~addr:5 ~value:42);
  Alcotest.(check int) "value known: charge" 2 (attempt ());
  check_stats "value known" b ~forwarded:1 ~stall_order:2;
  issued "value known" b ~value:42;
  (* a forwarding hit between younger and older stores: the younger two,
     then the youngest older match *)
  let b, attempt =
    cam_fixture
      ~stores:
        [
          (0, Some 5, Some 1); (1, Some 5, Some 2); (3, None, None); (4, None, None);
        ]
      ~load:(2, 5)
  in
  Alcotest.(check int) "forwarding hit: charge" 3 (attempt ());
  check_stats "forwarding hit" b ~forwarded:1 ~stall_order:0;
  issued "forwarding hit" b ~value:2

(* Entries that never move, driven past the physical end of the store
   ring.  Depth 4 over [cam_portmap] (each instance allocates one load or
   one store), 17 instances in three rounds.  Round A commits three
   stores, so the next allocation starts at the last store slot; rounds B
   and C then keep live stores on both sides of the physical end, and the
   store-queue head passes it twice.  Every clock is one issue-and-commit
   attempt, checked against its exact [lsq_cam] delta: a load's walk
   (every younger store, then each older store compared back to the first
   address match) plus the head store's WAR walk (older loads, oldest
   first, up to the first unissued one of unknown or equal address). *)
let test_wrap_around () =
  let prof = Pv_obs.Prof.create () in
  let cfg = { quick_cfg with Pv_lsq.Lsq.alloc_per_cycle = 8 } in
  let mem = Array.init 32 (fun i -> 100 + i) in
  let b = Pv_lsq.Lsq.create ~prof cfg cam_portmap mem in
  let cam () = (Pv_obs.Prof.phase_totals prof).(Pv_obs.Prof.phase_lsq_cam) in
  let clock name charge =
    let c0 = cam () in
    step b;
    Alcotest.(check int) (name ^ ": lsq_cam") charge (cam () - c0)
  in
  let alloc seqs =
    List.iter
      (fun (s, group) ->
        Alcotest.(check bool)
          (Printf.sprintf "seq %d allocated" s)
          true
          (b.MI.begin_instance ~seq:s ~group))
      seqs
  in
  let load s addr =
    Alcotest.(check bool)
      (Printf.sprintf "load %d accepted" s)
      true
      (b.MI.load_req ~port:0 ~key:(tkey s) ~addr)
  in
  let store s addr value =
    Alcotest.(check bool)
      (Printf.sprintf "store %d accepted" s)
      true
      (b.MI.store_req ~port:1 ~key:(tkey s) ~addr ~value)
  in
  let responses name expected =
    Alcotest.(check (list (pair int int)))
      (name ^ ": responses in request order")
      expected
      (List.map (fun _ -> poll_until b ~port:0) expected)
  in
  (* A: three stores commit, one write port a cycle; the head ends on the
     last slot *)
  alloc [ (0, 1); (1, 1); (2, 1) ];
  List.iter (fun s -> store s (20 + s) s) [ 0; 1; 2 ];
  clock "A1" 0;
  clock "A2" 0;
  clock "A3" 0;
  Alcotest.(check (list int)) "A: committed" [ 0; 1; 2 ] (Array.to_list (Array.sub mem 20 3));
  (* B: loads 3, 5, 7, 9 fill the load queue; stores 4, 6, 8 sit in the
     last slot and, past the physical end, the first two *)
  alloc [ (3, 0); (4, 1); (5, 0); (6, 1); (7, 0); (8, 1); (9, 0) ];
  Alcotest.(check bool) "B: a fifth load is refused" false
    (b.MI.begin_instance ~seq:10 ~group:0);
  load 7 5;
  store 4 5 45;
  store 6 5 65;
  b.MI.store_addr ~port:1 ~key:(tkey 8) ~addr:9;
  (* load 7 issues before the older loads 3 and 5, which have no address:
     it passes store 8 and forwards from store 6, the youngest older match,
     across the wrap from store 4; store 4's WAR walk stops at load 3 *)
  clock "B1: younger load forwards, WAR blocks" 3;
  responses "B1" [ (7, 65) ];
  (* load 5 leaves from the middle of 3, 5, 9 *)
  Alcotest.(check bool) "B: skip load 5" true (b.MI.op_skip ~port:0 ~key:(tkey 5));
  load 3 7;
  (* load 3 passes all three younger stores and reads memory; store 4's
     WAR walk meets load 9 first, younger, and commits *)
  clock "B2: oldest load reads, store 4 commits" 3;
  load 9 9;
  (* load 9's youngest older match, store 8, has no value: it waits; the
     head passes the physical end as store 6 commits *)
  clock "B3: value unknown, store 6 commits" 1;
  store 8 9 89;
  clock "B4: load 9 forwards, store 8 commits" 1;
  responses "B" [ (3, 107); (9, 89) ];
  Alcotest.(check (list int)) "B: memory" [ 65; 89 ] [ mem.(5); mem.(9) ];
  Alcotest.(check bool) "B: quiesced" true (b.MI.quiesced ());
  (* C: stores 13, 14, 15 again straddle the end (slots 2, 3, 0) *)
  alloc [ (10, 0); (11, 0); (12, 0); (13, 1); (14, 1); (15, 1); (16, 0) ];
  load 10 1;
  load 11 2;
  load 12 4;
  store 13 4 134;
  store 14 3 143;
  store 15 3 153;
  load 16 3;
  (* loads 10 and 11 take both read ports, load 12 is refused for
     bandwidth (each walks the three younger stores), load 16 forwards
     from store 15 past the end; store 13's WAR walk stops at load 12, an
     older load of its own address *)
  clock "C1: two reads, a bandwidth stall, a forward, a WAR block" 11;
  clock "C2: load 12 reads before store 13 commits" 3;
  clock "C3" 0;
  clock "C4: store 15 commits past the end" 0;
  responses "C" [ (10, 101); (11, 102); (12, 104); (16, 153) ];
  Alcotest.(check (list int)) "C: memory" [ 153; 134 ] [ mem.(3); mem.(4) ];
  Alcotest.(check bool) "C: quiesced" true (b.MI.quiesced ());
  let st = b.MI.stats () in
  Alcotest.(check (list int))
    "loads, stores, forwarded, stall_order, stall_bw, stall_full, fake_tokens"
    [ 7; 9; 3; 1; 1; 1; 1 ]
    [
      st.MI.loads;
      st.MI.stores;
      st.MI.forwarded;
      st.MI.stall_order;
      st.MI.stall_bw;
      st.MI.stall_full;
      st.MI.fake_tokens;
    ]

(* ---- the LSQ against a list-based shift-collapse reference ---- *)

(* The reference keeps both queues as lists in program order: an entry
   that leaves is filtered out and the younger ones close up behind it.
   It restates the LSQ's contract operation by operation (allocation,
   request matching, the load-issue walk with its CAM charge, in-order
   commit behind the WAR guard, per-array read/write ports, per-port
   response order, at most 8 load issues and 4 commits a cycle) without
   the queue layout. *)
type rload = {
  lkey : int;
  lport : int;
  lusable : int;
  mutable laddr : int;
  mutable ltok : int;
}

type rstore = {
  skey : int;
  sport : int;
  susable : int;
  mutable saddr : int;
  mutable sval : int;
  mutable known : bool;
  mutable skipped : bool;
}

(* a pending response: ready = -1 until its load issues *)
type rresp = { rtok : int; mutable ready : int; mutable rvalue : int }

type reference = {
  rcfg : Pv_lsq.Lsq.config;
  rpm : Portmap.t;
  rmem : int array;
  rstats : MI.stats;
  aid : int array;
  rreads : int array;
  rwrites : int array;
  mutable rnow : int;
  mutable rallocs : int;
  mutable lq : rload list;
  mutable sq : rstore list;
  resps : rresp list array;
  mutable cam : int;
}

let reference cfg pm mem =
  let aid, n = Portmap.array_ids pm in
  {
    rcfg = cfg;
    rpm = pm;
    rmem = mem;
    rstats = MI.fresh_stats ();
    aid;
    rreads = Array.make n 2;
    rwrites = Array.make n 1;
    rnow = 0;
    rallocs = 0;
    lq = [];
    sq = [];
    resps = Array.make (Array.length pm.Portmap.ports) [];
    cam = 0;
  }

let okey seq pos = (seq lsl 6) lor pos
let key_seq k = k asr 6
let is_store pm p = (Portmap.port pm p).Portmap.kind = Portmap.OStore

let take budget a =
  budget.(a) > 0
  && begin
       budget.(a) <- budget.(a) - 1;
       true
     end

let push_resp r port x = r.resps.(port) <- r.resps.(port) @ [ x ]

let ref_begin r ~seq ~group =
  let ports = Portmap.group_ports r.rpm group in
  let ns = List.length (List.filter (is_store r.rpm) ports) in
  let nl = List.length ports - ns in
  ports = []
  ||
  if
    r.rallocs >= r.rcfg.Pv_lsq.Lsq.alloc_per_cycle
    || List.length r.lq + nl > r.rcfg.depth
    || List.length r.sq + ns > r.rcfg.depth
  then begin
    r.rstats.MI.stall_full <- r.rstats.MI.stall_full + 1;
    false
  end
  else begin
    r.rallocs <- r.rallocs + 1;
    let usable = r.rnow + r.rcfg.alloc_delay in
    List.iteri
      (fun pos p ->
        let k = okey seq pos in
        if is_store r.rpm p then
          r.sq <-
            r.sq
            @ [
                {
                  skey = k;
                  sport = p;
                  susable = usable;
                  saddr = -1;
                  sval = 0;
                  known = false;
                  skipped = false;
                };
              ]
        else
          r.lq <-
            r.lq @ [ { lkey = k; lport = p; lusable = usable; laddr = -1; ltok = -1 } ])
      ports;
    let occ = List.length r.lq + List.length r.sq in
    if occ > r.rstats.MI.max_occupancy then r.rstats.MI.max_occupancy <- occ;
    true
  end

let find_load r ~seq ~port =
  List.find_opt
    (fun l -> key_seq l.lkey = seq && l.lport = port && l.laddr < 0)
    r.lq

let find_store r ~seq ~port ~no_addr =
  List.find_opt
    (fun s ->
      key_seq s.skey = seq && s.sport = port
      && if no_addr then s.saddr < 0 else not s.known)
    r.sq

let ref_load_req r ~port ~key ~addr =
  let st = r.rstats in
  if Portmap.is_ambiguous r.rpm port then begin
    match find_load r ~seq:(Pv_dataflow.Types.Token.seq key) ~port with
    | None -> false
    | Some l ->
        l.laddr <- addr;
        l.ltok <- key;
        push_resp r port { rtok = key; ready = -1; rvalue = 0 };
        st.MI.loads <- st.MI.loads + 1;
        true
  end
  else if take r.rreads r.aid.(port) then begin
    st.MI.loads <- st.MI.loads + 1;
    push_resp r port
      { rtok = key; ready = r.rnow + MI.mem_latency; rvalue = r.rmem.(addr) };
    true
  end
  else begin
    st.MI.stall_bw <- st.MI.stall_bw + 1;
    false
  end

let ref_store_req r ~port ~key ~addr ~value =
  let st = r.rstats in
  if Portmap.is_ambiguous r.rpm port then begin
    match
      find_store r ~seq:(Pv_dataflow.Types.Token.seq key) ~port ~no_addr:false
    with
    | None -> false
    | Some s ->
        s.saddr <- addr;
        s.sval <- value;
        s.known <- true;
        st.MI.stores <- st.MI.stores + 1;
        true
  end
  else if take r.rwrites r.aid.(port) then begin
    st.MI.stores <- st.MI.stores + 1;
    r.rmem.(addr) <- value;
    true
  end
  else begin
    st.MI.stall_bw <- st.MI.stall_bw + 1;
    false
  end

let ref_store_addr r ~port ~key ~addr =
  if Portmap.is_ambiguous r.rpm port then
    match
      find_store r ~seq:(Pv_dataflow.Types.Token.seq key) ~port ~no_addr:true
    with
    | None -> ()
    | Some s -> s.saddr <- addr

let ref_op_skip r ~port ~key =
  let seq = Pv_dataflow.Types.Token.seq key in
  if Portmap.is_ambiguous r.rpm port then begin
    r.rstats.MI.fake_tokens <- r.rstats.MI.fake_tokens + 1;
    if is_store r.rpm port then (
      match find_store r ~seq ~port ~no_addr:true with
      | None -> ()
      | Some s -> s.skipped <- true)
    else
      match find_load r ~seq ~port with
      | None -> ()
      | Some l -> r.lq <- List.filter (fun x -> x != l) r.lq
  end;
  true

(* the oldest unissued response slot of the load's token completes *)
let fill r (l : rload) ~ready ~value =
  match
    List.find_opt (fun x -> x.rtok = l.ltok && x.ready < 0) r.resps.(l.lport)
  with
  | Some x ->
      x.ready <- ready;
      x.rvalue <- value
  | None -> Alcotest.fail "reference: no open response slot"

(* the load-issue attempt: blocked while an older live store's address is
   unknown; otherwise the walk passes every younger store and compares
   older ones, youngest first, up to the first address match *)
let ref_try_issue r (l : rload) =
  let st = r.rstats in
  if l.laddr < 0 || l.lusable > r.rnow then false
  else if
    List.exists (fun s -> (not s.skipped) && s.saddr < 0 && s.skey < l.lkey) r.sq
  then begin
    st.MI.stall_order <- st.MI.stall_order + 1;
    false
  end
  else begin
    let older = List.rev (List.filter (fun s -> s.skey < l.lkey) r.sq) in
    let younger = List.length r.sq - List.length older in
    let rec walk n = function
      | [] -> (n, None)
      | s :: rest ->
          if (not s.skipped) && s.saddr = l.laddr then (n + 1, Some s)
          else walk (n + 1) rest
    in
    let compared, hit = walk 0 older in
    r.cam <- r.cam + younger + compared;
    match hit with
    | Some s when s.known && r.rcfg.forwarding ->
        fill r l ~ready:(r.rnow + 1) ~value:s.sval;
        st.MI.forwarded <- st.MI.forwarded + 1;
        true
    | Some _ ->
        st.MI.stall_order <- st.MI.stall_order + 1;
        false
    | None ->
        if take r.rreads r.aid.(l.lport) then begin
          fill r l ~ready:(r.rnow + MI.mem_latency) ~value:r.rmem.(l.laddr);
          true
        end
        else begin
          st.MI.stall_bw <- st.MI.stall_bw + 1;
          false
        end
  end

(* the WAR guard: older loads, oldest first, until one is unissued with an
   unknown or equal address *)
let ref_can_commit r s =
  s.susable <= r.rnow && s.saddr >= 0 && s.known
  &&
  let rec walk n = function
    | l :: rest when l.lkey < s.skey ->
        if l.laddr < 0 || l.laddr = s.saddr then (n + 1, true)
        else walk (n + 1) rest
    | _ -> (n, false)
  in
  let scanned, blocked = walk 0 r.lq in
  r.cam <- r.cam + scanned;
  not blocked

let ref_clock r =
  let issued = ref 0 in
  r.lq <-
    List.filter
      (fun l ->
        not
          (!issued < 8
          && ref_try_issue r l
          && begin
               incr issued;
               true
             end))
      r.lq;
  let committed = ref 0 in
  let rec commit () =
    match r.sq with
    | s :: rest when s.skipped ->
        r.sq <- rest;
        commit ()
    | s :: rest
      when !committed < 4
           && ref_can_commit r s
           && take r.rwrites r.aid.(s.sport) ->
        r.rmem.(s.saddr) <- s.sval;
        r.sq <- rest;
        incr committed;
        commit ()
    | _ -> ()
  in
  commit ();
  r.rallocs <- 0;
  Array.fill r.rreads 0 (Array.length r.rreads) 2;
  Array.fill r.rwrites 0 (Array.length r.rwrites) 1;
  r.rnow <- r.rnow + 1

let ref_poll r ~port =
  match r.resps.(port) with
  | x :: rest when x.ready >= 0 && x.ready <= r.rnow ->
      r.resps.(port) <- rest;
      Some (x.rtok, x.rvalue)
  | _ -> None

(* Array "x": loads 0, 2, 4 and stores 1, 3, each group at most one load
   and one store (so every depth from 1 fits), group 2 with its store
   first; direct ports 5 (load) and 6 (store) on the same array, so their
   requests take the read and write ports the queued loads and the
   commits need. *)
let model_portmap =
  let port id kind array instance =
    { Portmap.id; kind; array; instance; conditional = false }
  in
  {
    Portmap.ports =
      [|
        port 0 Portmap.OLoad "x" (Some 0);
        port 1 Portmap.OStore "x" (Some 0);
        port 2 Portmap.OLoad "x" (Some 0);
        port 3 Portmap.OStore "x" (Some 0);
        port 4 Portmap.OLoad "x" (Some 0);
        port 5 Portmap.OLoad "x" None;
        port 6 Portmap.OStore "x" None;
      |];
    n_groups = 3;
    n_instances = 1;
    rom = [| [| [| 0; 1 |]; [| 2 |]; [| 3; 4 |] |] |];
  }

(* an operation names its instance by distance below the next sequence
   number to allocate (-1 = not yet allocated) *)
type model_op =
  | Begin of int
  | Load of int * int * int
  | Store of int * int * int * int
  | Addr of int * int * int
  | Skip of int * int
  | Clock
  | Poll of int

let show_op = function
  | Begin g -> Printf.sprintf "begin g%d" g
  | Load (d, p, a) -> Printf.sprintf "load -%d p%d @%d" d p a
  | Store (d, p, a, v) -> Printf.sprintf "store -%d p%d @%d=%d" d p a v
  | Addr (d, p, a) -> Printf.sprintf "addr -%d p%d @%d" d p a
  | Skip (d, p) -> Printf.sprintf "skip -%d p%d" d p
  | Clock -> "clock"
  | Poll p -> Printf.sprintf "poll p%d" p

let model_case =
  let open QCheck.Gen in
  let back = int_range (-1) 3 and addr = int_range 0 3 in
  let op =
    frequency
      [
        (3, map (fun g -> Begin g) (int_range 0 2));
        (5, map3 (fun d p a -> Load (d, p, a)) back (oneofl [ 0; 2; 4; 5; 5 ]) addr);
        ( 3,
          map3
            (fun (d, p) a v -> Store (d, p, a, v))
            (pair back (oneofl [ 1; 3; 6 ]))
            addr (int_range 0 999) );
        (2, map3 (fun d p a -> Addr (d, p, a)) back (oneofl [ 1; 3 ]) addr);
        (1, map2 (fun d p -> Skip (d, p)) back (int_range 0 6));
        (3, return Clock);
        (2, map (fun p -> Poll p) (oneofl [ 0; 2; 4; 5 ]));
      ]
  in
  let cfg =
    map3
      (fun (depth, alloc_delay) alloc_per_cycle forwarding ->
        { Pv_lsq.Lsq.depth; alloc_delay; alloc_per_cycle; forwarding })
      (pair (int_range 1 6) (int_range 0 3))
      (int_range 1 2) bool
  in
  QCheck.make
    ~print:(fun (c, ops) ->
      Printf.sprintf "depth %d delay %d per-cycle %d fwd %b: %s" c.Pv_lsq.Lsq.depth
        c.alloc_delay c.alloc_per_cycle c.forwarding
        (String.concat "; " (List.map show_op ops)))
    (pair cfg (list_size (int_range 0 200) op))

let fuzz_iters base =
  match Sys.getenv_opt "FUZZ_ITERS" with
  | Some s -> (
      match int_of_string_opt s with Some n when n > 0 -> base * n | _ -> base)
  | None -> base

let stats_list (st : MI.stats) =
  [
    st.MI.loads; st.stores; st.squashes; st.replayed_ops; st.stall_full;
    st.stall_alloc; st.stall_order; st.stall_bw; st.forwarded; st.fake_tokens;
    st.max_occupancy; st.faults; st.degraded;
  ]

let prop_matches_reference =
  QCheck.Test.make ~count:(fuzz_iters 500)
    ~name:"LSQ matches the shift-collapse reference, depths 1-6" model_case
    (fun (cfg, ops) ->
      let init () = Array.init 16 (fun i -> 100 + i) in
      let prof = Pv_obs.Prof.create () in
      let mem = init () in
      let b = Pv_lsq.Lsq.create ~prof cfg model_portmap mem in
      let r = reference cfg model_portmap (init ()) in
      let next = ref 0 in
      let key d = tkey (max 0 (!next - 1 - d)) in
      let agree what x y =
        if x <> y then QCheck.Test.fail_reportf "%s differs from the reference" what
      in
      List.iter
        (fun op ->
          (match op with
          | Begin group ->
              let got = b.MI.begin_instance ~seq:!next ~group in
              agree "begin_instance" got (ref_begin r ~seq:!next ~group);
              if got then incr next
          | Load (d, port, addr) ->
              agree "load_req"
                (b.MI.load_req ~port ~key:(key d) ~addr)
                (ref_load_req r ~port ~key:(key d) ~addr)
          | Store (d, port, addr, value) ->
              agree "store_req"
                (b.MI.store_req ~port ~key:(key d) ~addr ~value)
                (ref_store_req r ~port ~key:(key d) ~addr ~value)
          | Addr (d, port, addr) ->
              b.MI.store_addr ~port ~key:(key d) ~addr;
              ref_store_addr r ~port ~key:(key d) ~addr
          | Skip (d, port) ->
              agree "op_skip"
                (b.MI.op_skip ~port ~key:(key d))
                (ref_op_skip r ~port ~key:(key d))
          | Clock ->
              step b;
              ref_clock r
          | Poll port -> agree "poll" (MI.poll b ~port) (ref_poll r ~port));
          agree "stats" (stats_list (b.MI.stats ())) (stats_list r.rstats);
          agree "lsq_cam"
            (Pv_obs.Prof.phase_totals prof).(Pv_obs.Prof.phase_lsq_cam)
            r.cam;
          agree "memory" mem r.rmem)
        ops;
      true)

let () =
  Alcotest.run "pv_lsq"
    [
      ( "lsq",
        [
          Alcotest.test_case "load needs allocation" `Quick
            test_load_needs_allocation;
          Alcotest.test_case "load reads memory" `Quick test_load_reads_memory;
          Alcotest.test_case "load waits for store address" `Quick
            test_load_waits_for_store_address;
          Alcotest.test_case "store-to-load forwarding" `Quick
            test_store_to_load_forwarding;
          Alcotest.test_case "commit in order" `Quick test_commit_in_order;
          Alcotest.test_case "allocation backpressure" `Quick
            test_alloc_backpressure;
          Alcotest.test_case "alloc per-cycle limit" `Quick
            test_alloc_per_cycle_limit;
          Alcotest.test_case "alloc delay gates issue" `Quick
            test_alloc_delay_gates_issue;
          Alcotest.test_case "op_skip store" `Quick test_op_skip_store;
          Alcotest.test_case "direct port bandwidth" `Quick
            test_direct_port_bandwidth;
          Alcotest.test_case "responses in port order" `Quick
            test_responses_in_port_order;
          Alcotest.test_case "ROM position limit: 64 ports, not 65" `Quick
            test_rom_position_limit;
          Alcotest.test_case "CAM charge per issue attempt" `Quick
            test_cam_charges;
          Alcotest.test_case "group larger than the depth is rejected" `Quick
            test_group_exceeds_depth;
          Alcotest.test_case "wrap-around at depth 4" `Quick test_wrap_around;
        ] );
      ("reference", [ QCheck_alcotest.to_alcotest prop_matches_reference ]);
    ]
