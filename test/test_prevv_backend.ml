(* Behavioural tests for the PreVV backend, driving the Memif contract
   directly: premature reads, in-order commit, violation detection and
   squash, fake tokens, admission and the store-arrival frontier. *)

open Pv_memory
module MI = Pv_dataflow.Memif

let tkey s = Pv_dataflow.Types.Token.make ~seq:s ~epoch:0
module Fault = Pv_dataflow.Fault

(* one ambiguous array "x": load port 0, store port 1 in one group *)
let portmap () =
  {
    Portmap.ports =
      [|
        { Portmap.id = 0; kind = Portmap.OLoad; array = "x"; instance = Some 0; conditional = false };
        { Portmap.id = 1; kind = Portmap.OStore; array = "x"; instance = Some 0; conditional = false };
      |];
    n_groups = 1;
    n_instances = 1;
    rom = [| [| [| 0; 1 |] |] |];
  }

(* conditional variant: the store may be skipped *)
let portmap_cond () =
  let pm = portmap () in
  pm.Portmap.ports.(1) <-
    { (pm.Portmap.ports.(1)) with Portmap.conditional = true };
  pm

let cfg depth =
  {
    Pv_prevv.Backend.depth_q = depth;
    value_validation = true;
    collapse_queue = true;
    squash_budget = 8;
  }

let fresh ?(depth = 8) ?(pm = portmap ()) () =
  let mem = Array.make 32 0 in
  Array.iteri (fun i _ -> mem.(i) <- 100 + i) mem;
  let _, b = Pv_prevv.Backend.create_full (cfg depth) pm ~n_seq:64 mem in
  (mem, b)

let step (b : MI.t) = b.MI.clock ()

let rec poll_until ?(limit = 20) (b : MI.t) ~port =
  match MI.poll b ~port with
  | Some (key, v) -> (Pv_dataflow.Types.Token.seq key, v)
  | None ->
      if limit = 0 then Alcotest.fail "no response within limit";
      step b;
      poll_until ~limit:(limit - 1) b ~port

let begin_seqs (b : MI.t) n =
  for s = 0 to n - 1 do
    Alcotest.(check bool) "begin accepted" true (b.MI.begin_instance ~seq:s ~group:0)
  done

(* a premature load reads committed memory immediately *)
let test_premature_read () =
  let _, b = fresh () in
  begin_seqs b 1;
  Alcotest.(check bool) "accepted" true (b.MI.load_req ~port:0 ~key:(tkey 0) ~addr:4);
  let seq, v = poll_until b ~port:0 in
  Alcotest.(check (pair int int)) "memory value" (0, 104) (seq, v)

(* stores do not reach memory before their instance commits *)
let test_store_buffered_then_committed () =
  let mem, b = fresh () in
  begin_seqs b 1;
  ignore (b.MI.load_req ~port:0 ~key:(tkey 0) ~addr:4);
  Alcotest.(check bool) "store accepted" true
    (b.MI.store_req ~port:1 ~key:(tkey 0) ~addr:4 ~value:55);
  Alcotest.(check int) "not yet in memory" 104 mem.(4);
  step b;
  Alcotest.(check int) "committed at the frontier" 55 mem.(4);
  ignore (poll_until b ~port:0);
  Alcotest.(check bool) "quiesced" true (b.MI.quiesced ())

(* commits follow program order even when instances complete out of order *)
let test_commit_in_program_order () =
  let mem, b = fresh () in
  begin_seqs b 3;
  (* instance 1 and 2 complete; instance 0's store is still missing *)
  ignore (b.MI.load_req ~port:0 ~key:(tkey 1) ~addr:9);
  ignore (b.MI.store_req ~port:1 ~key:(tkey 1) ~addr:6 ~value:11);
  ignore (b.MI.load_req ~port:0 ~key:(tkey 2) ~addr:9);
  ignore (b.MI.store_req ~port:1 ~key:(tkey 2) ~addr:6 ~value:22);
  step b;
  step b;
  Alcotest.(check int) "blocked behind the frontier" 106 mem.(6);
  ignore (b.MI.load_req ~port:0 ~key:(tkey 0) ~addr:9);
  ignore (b.MI.store_req ~port:1 ~key:(tkey 0) ~addr:6 ~value:0);
  (* one BRAM write port: three commits take three cycles *)
  step b;
  step b;
  step b;
  step b;
  Alcotest.(check int) "all committed in order" 22 mem.(6)

(* scenario (a) of Sec. III: a younger load consumed a stale value and the
   older store's arrival exposes it -> squash at the load's iteration *)
let test_violation_and_squash () =
  let mem, b = fresh () in
  begin_seqs b 2;
  (* the younger load reads address 5 prematurely (value 105) *)
  ignore (b.MI.load_req ~port:0 ~key:(tkey 1) ~addr:5);
  ignore (poll_until b ~port:0);
  (* the older store to the same address arrives with a different value *)
  ignore (b.MI.load_req ~port:0 ~key:(tkey 0) ~addr:2);
  ignore (b.MI.store_req ~port:1 ~key:(tkey 0) ~addr:5 ~value:777);
  (match b.MI.poll_squash () with
  | Some 1 -> ()
  | Some s -> Alcotest.failf "squash at %d, expected 1" s
  | None -> Alcotest.fail "expected a squash");
  (* replay: only instance 1 re-executes; instance 0's records survived
     the squash and its store commits at the frontier *)
  step b;
  Alcotest.(check bool) "replay begin" true (b.MI.begin_instance ~seq:1 ~group:0);
  step b;
  Alcotest.(check int) "store committed during replay window" 777 mem.(5);
  Alcotest.(check bool) "replayed load accepted" true
    (b.MI.load_req ~port:0 ~key:(tkey 1) ~addr:5);
  (* port responses are in request order: instance 0's survives the squash *)
  let s0, v0 = poll_until b ~port:0 in
  Alcotest.(check (pair int int)) "instance 0's response intact" (0, 102) (s0, v0);
  let _, v = poll_until b ~port:0 in
  Alcotest.(check int) "replayed load sees the store" 777 v

(* Eq. 5: matching values mean no squash *)
let test_value_validation_passes () =
  let _, b = fresh () in
  begin_seqs b 2;
  ignore (b.MI.load_req ~port:0 ~key:(tkey 1) ~addr:5);
  ignore (poll_until b ~port:0);
  ignore (b.MI.load_req ~port:0 ~key:(tkey 0) ~addr:2);
  (* the store writes the value the load already observed *)
  ignore (b.MI.store_req ~port:1 ~key:(tkey 0) ~addr:5 ~value:105);
  Alcotest.(check bool) "no squash" true (b.MI.poll_squash () = None)

(* the load gate: an older queued store to the same address stalls the load
   instead of letting it mis-speculate deterministically *)
let test_load_gate_wait () =
  let _, b = fresh () in
  begin_seqs b 2;
  ignore (b.MI.load_req ~port:0 ~key:(tkey 0) ~addr:2);
  ignore (b.MI.store_req ~port:1 ~key:(tkey 0) ~addr:5 ~value:777);
  (* before the commit lands, the younger load to address 5 must wait *)
  Alcotest.(check bool) "gated" false (b.MI.load_req ~port:0 ~key:(tkey 1) ~addr:5);
  step b;
  (* after commit it reads the new value *)
  Alcotest.(check bool) "accepted after commit" true
    (b.MI.load_req ~port:0 ~key:(tkey 1) ~addr:5);
  let s0, v0 = poll_until b ~port:0 in
  Alcotest.(check (pair int int)) "first response" (0, 102) (s0, v0);
  let _, v = poll_until b ~port:0 in
  Alcotest.(check int) "fresh value" 777 v

(* fake tokens: a skipped conditional store lets the frontier advance *)
let test_fake_tokens () =
  let mem, b = fresh ~pm:(portmap_cond ()) () in
  begin_seqs b 2;
  ignore (b.MI.load_req ~port:0 ~key:(tkey 0) ~addr:3);
  Alcotest.(check bool) "fake token accepted" true (b.MI.op_skip ~port:1 ~key:(tkey 0));
  ignore (b.MI.load_req ~port:0 ~key:(tkey 1) ~addr:3);
  ignore (b.MI.store_req ~port:1 ~key:(tkey 1) ~addr:3 ~value:9);
  step b;
  step b;
  Alcotest.(check int) "both instances retired" 9 mem.(3);
  ignore (poll_until b ~port:0);
  ignore (poll_until b ~port:0);
  Alcotest.(check bool) "quiesced" true (b.MI.quiesced ())

(* without fake tokens the frontier wedges: a circuit built without them
   never tells the backend that instance 0's store was skipped *)
let test_no_fake_tokens_wedges () =
  let mem = Array.make 8 0 in
  let _, b =
    Pv_prevv.Backend.create_full (cfg 8) (portmap_cond ()) ~n_seq:64 mem
  in
  ignore (b.MI.begin_instance ~seq:0 ~group:0);
  ignore (b.MI.begin_instance ~seq:1 ~group:0);
  ignore (b.MI.load_req ~port:0 ~key:(tkey 0) ~addr:3);
  ignore (b.MI.load_req ~port:0 ~key:(tkey 1) ~addr:3);
  ignore (b.MI.store_req ~port:1 ~key:(tkey 1) ~addr:3 ~value:9);
  for _ = 1 to 10 do step b done;
  Alcotest.(check int) "store never commits" 0 mem.(3);
  Alcotest.(check bool) "never quiesces" false (b.MI.quiesced ())

(* admission: the dynamic frontier reserve and the per-port quota bound
   how far one port races ahead of the oldest instance *)
let test_port_quota () =
  let _, b = fresh ~depth:4 () in
  begin_seqs b 8;
  (* the frontier instance (seq 0) still misses 2 ops, so only
     depth - 2 = 2 slots are open to younger records (one BRAM read per
     cycle pair, so space the requests out with clock ticks) *)
  Alcotest.(check bool) "1st" true (b.MI.load_req ~port:0 ~key:(tkey 1) ~addr:1);
  Alcotest.(check bool) "2nd" true (b.MI.load_req ~port:0 ~key:(tkey 2) ~addr:1);
  step b;
  Alcotest.(check bool) "3rd refused (frontier reserve)" false
    (b.MI.load_req ~port:0 ~key:(tkey 3) ~addr:1);
  (* frontier-age operations always get in *)
  Alcotest.(check bool) "frontier load admitted" true
    (b.MI.load_req ~port:0 ~key:(tkey 0) ~addr:1);
  ignore (b.MI.store_req ~port:1 ~key:(tkey 0) ~addr:9 ~value:1);
  step b;
  (* instance 0 committed: its slots freed, the reserve moved to seq 1 *)
  Alcotest.(check bool) "3rd admitted after commit" true
    (b.MI.load_req ~port:0 ~key:(tkey 3) ~addr:1)

(* depth smaller than an instance's ports is rejected at construction *)
let test_depth_guard () =
  let mem = Array.make 8 0 in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Pv_prevv.Backend.create_full (cfg 1) (portmap ()) ~n_seq:64 mem);
       false
     with Invalid_argument _ -> true)

(* the message names the depth the user wrote as well as the simulated
   one: PreVV2 on gaussian is 4 queue entries for 5 member ports *)
let test_depth_guard_message () =
  let compiled = Pv_core.Pipeline.compile (Pv_kernels.Defs.gaussian ()) in
  Alcotest.check_raises "gaussian under prevv2"
    (Invalid_argument
       "PreVV: depth_q 4 (named depth 2) is smaller than instance 0's 5 \
        member ports; one body instance could never fit and the commit \
        frontier would never advance")
    (fun () ->
      ignore (Pv_core.Pipeline.simulate compiled (Pv_core.Scheme.prevv 2)))

(* the store-arrival frontier retires load records early: once every older
   store of the same array has arrived and been checked, the load's slot
   frees even though the global commit frontier is stuck on another array *)
let portmap_two_arrays () =
  {
    Portmap.ports =
      [|
        { Portmap.id = 0; kind = Portmap.OLoad; array = "x"; instance = Some 0; conditional = false };
        { Portmap.id = 1; kind = Portmap.OStore; array = "x"; instance = Some 0; conditional = false };
        { Portmap.id = 2; kind = Portmap.OLoad; array = "y"; instance = Some 1; conditional = false };
      |];
    n_groups = 1;
    n_instances = 2;
    rom = [| [| [| 0; 1 |] |]; [| [| 2 |] |] |];
  }

let test_saf_retirement () =
  let _, b = fresh ~depth:8 ~pm:(portmap_two_arrays ()) () in
  begin_seqs b 8;
  (* the y-load of seq 0 never arrives: the commit frontier stays at 0 *)
  for s = 0 to 5 do
    ignore (b.MI.load_req ~port:0 ~key:(tkey s) ~addr:(20 + s))
  done;
  for s = 0 to 5 do
    ignore (b.MI.store_req ~port:1 ~key:(tkey s) ~addr:(10 + s) ~value:s)
  done;
  step b;
  (* stores of 0..5 arrived: x's store-arrival frontier passed seq 5, all
     x-load records validated and retired; the x-port has credits again *)
  Alcotest.(check bool) "load slot freed by validation" true
    (b.MI.load_req ~port:0 ~key:(tkey 6) ~addr:26);
  Alcotest.(check bool) "another" true (b.MI.load_req ~port:0 ~key:(tkey 7) ~addr:27)

(* an undetected SEU flipping a recorded load value is indistinguishable
   from a premature read of stale data — value validation (Eq. 5) catches
   it when the older store arrives and squashes the victim iteration *)
let test_silent_pq_flip_caught () =
  let _, b = fresh () in
  begin_seqs b 2;
  ignore (b.MI.load_req ~port:0 ~key:(tkey 1) ~addr:5);
  ignore (poll_until b ~port:0);
  (* SEU: the queued record's value silently flips (no ECC flag) *)
  Alcotest.(check bool) "flip accepted" true
    (b.MI.inject (Fault.B_pq_flip { inst = 0; slot = 0; mask = 0xff; detect = false }));
  ignore (b.MI.load_req ~port:0 ~key:(tkey 0) ~addr:2);
  (* the store writes exactly what the load originally observed: without
     the SEU this is the no-squash case of test_value_validation_passes *)
  ignore (b.MI.store_req ~port:1 ~key:(tkey 0) ~addr:5 ~value:105);
  match b.MI.poll_squash () with
  | Some 1 -> ()
  | Some s -> Alcotest.failf "squash at %d, expected 1" s
  | None -> Alcotest.fail "corrupted record escaped value validation"

(* a spurious squash below the commit frontier is refused: those iterations
   are architectural state already *)
let test_inject_stale_squash_refused () =
  let _, b = fresh () in
  begin_seqs b 2;
  ignore (b.MI.load_req ~port:0 ~key:(tkey 0) ~addr:4);
  ignore (b.MI.store_req ~port:1 ~key:(tkey 0) ~addr:4 ~value:1);
  step b;
  (* instance 0 committed; the frontier is past it *)
  Alcotest.(check bool) "stale squash refused" false
    (b.MI.inject (Fault.B_squash { seq = 0 }));
  Alcotest.(check bool) "live squash accepted" true
    (b.MI.inject (Fault.B_squash { seq = 1 }));
  Alcotest.(check bool) "and observable" true (b.MI.poll_squash () = Some 1)

(* livelock guard unit: a squash source stuck on one iteration trips the
   budget and the backend degrades to non-speculative admission *)
let test_livelock_guard_unit () =
  let mem = Array.make 32 0 in
  let t, b =
    Pv_prevv.Backend.create_full
      { (cfg 8) with Pv_prevv.Backend.squash_budget = 2 }
      (portmap ()) ~n_seq:64 mem
  in
  begin_seqs b 6;
  Alcotest.(check bool) "not degraded initially" true
    (Pv_prevv.Backend.degraded_at t = None);
  for _ = 1 to 4 do
    Alcotest.(check bool) "squash accepted" true
      (b.MI.inject (Fault.B_squash { seq = 1 }));
    Alcotest.(check bool) "squash observed" true (b.MI.poll_squash () = Some 1);
    step b
  done;
  (* streak 4 > budget 2: guard engaged and recorded *)
  Alcotest.(check bool) "degraded_at set" true
    (Pv_prevv.Backend.degraded_at t <> None);
  Alcotest.(check bool) "stats record the degradation" true
    ((b.MI.stats ()).MI.degraded >= 1);
  (* degraded admission: a load far beyond the store-arrival frontier could
     still be accused by an older store, so it must wait *)
  Alcotest.(check bool) "speculative load refused" false
    (b.MI.load_req ~port:0 ~key:(tkey 4) ~addr:3);
  (* the frontier-age load has no possible accuser and still goes through *)
  Alcotest.(check bool) "frontier load admitted" true
    (b.MI.load_req ~port:0 ~key:(tkey 0) ~addr:3)

(* minimal legal depth (= one body instance): admission backpressures with
   [false] and the run still completes — a full queue must never surface as
   an exception *)
let test_min_depth_backpressure () =
  let mem, b = fresh ~depth:2 () in
  begin_seqs b 4;
  let refused = ref 0 in
  (* issue every op as early as possible, in program order, so younger
     iterations contend with the un-committed frontier for the two slots *)
  let ops = List.concat_map (fun s -> [ `L s; `S s ]) [ 0; 1; 2; 3 ] in
  let remaining = ref ops in
  let cycles = ref 0 in
  while !remaining <> [] do
    incr cycles;
    if !cycles > 100 then Alcotest.fail "no admission within 100 cycles";
    let rec issue = function
      | [] -> []
      | op :: rest ->
          let ok =
            match op with
            | `L s -> b.MI.load_req ~port:0 ~key:(tkey s) ~addr:(8 + s)
            | `S s ->
                b.MI.store_req ~port:1 ~key:(tkey s) ~addr:(8 + s) ~value:(50 + s)
          in
          if ok then issue rest
          else begin
            incr refused;
            op :: rest
          end
    in
    remaining := issue !remaining;
    step b
  done;
  for _ = 0 to 3 do ignore (poll_until b ~port:0) done;
  for _ = 1 to 8 do step b done;
  Alcotest.(check bool) "tight queue did backpressure" true (!refused > 0);
  Alcotest.(check bool) "refusals counted as stall_full" true
    ((b.MI.stats ()).MI.stall_full > 0);
  Alcotest.(check (list int)) "all stores committed" [ 50; 51; 52; 53 ]
    [ mem.(8); mem.(9); mem.(10); mem.(11) ];
  Alcotest.(check bool) "quiesced" true (b.MI.quiesced ())

(* the arrival bitmasks hold one bit per port: 62 ports build, 63 are
   rejected at construction *)
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

let test_port_limit () =
  let _, b =
    Pv_prevv.Backend.create_full (cfg 64) (wide_portmap 62) ~n_seq:4
      (Array.make 8 0)
  in
  Alcotest.(check bool) "62-port instance begins" true
    (b.MI.begin_instance ~seq:0 ~group:0);
  Alcotest.check_raises "63 ports"
    (Invalid_argument "PreVV: 63 ports exceed the 62-port arrival-bitmask limit")
    (fun () ->
      ignore
        (Pv_prevv.Backend.create_full (cfg 64) (wide_portmap 63) ~n_seq:4
           (Array.make 8 0)))

let () =
  Alcotest.run "pv_prevv_backend"
    [
      ( "prevv",
        [
          Alcotest.test_case "premature read" `Quick test_premature_read;
          Alcotest.test_case "store buffered then committed" `Quick
            test_store_buffered_then_committed;
          Alcotest.test_case "commit in program order" `Quick
            test_commit_in_program_order;
          Alcotest.test_case "violation and squash" `Quick
            test_violation_and_squash;
          Alcotest.test_case "value validation (Eq. 5)" `Quick
            test_value_validation_passes;
          Alcotest.test_case "load gate waits" `Quick test_load_gate_wait;
          Alcotest.test_case "fake tokens" `Quick test_fake_tokens;
          Alcotest.test_case "no fake tokens wedges" `Quick
            test_no_fake_tokens_wedges;
          Alcotest.test_case "port quota" `Quick test_port_quota;
          Alcotest.test_case "depth guard" `Quick test_depth_guard;
          Alcotest.test_case "depth guard names the named depth" `Quick
            test_depth_guard_message;
          Alcotest.test_case "port limit: 62 ports, not 63" `Quick
            test_port_limit;
          Alcotest.test_case "SAF retirement" `Quick test_saf_retirement;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "silent PQ flip caught by Eq. 5" `Quick
            test_silent_pq_flip_caught;
          Alcotest.test_case "stale injected squash refused" `Quick
            test_inject_stale_squash_refused;
          Alcotest.test_case "livelock guard degrades admission" `Quick
            test_livelock_guard_unit;
          Alcotest.test_case "minimal depth backpressures, never raises" `Quick
            test_min_depth_backpressure;
        ] );
    ]
