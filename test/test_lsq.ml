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
   alternating *)
let wide_portmap n =
  {
    Portmap.ports =
      Array.init n (fun id ->
          {
            Portmap.id;
            kind = (if id mod 2 = 0 then Portmap.OLoad else Portmap.OStore);
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
        ] );
    ]
