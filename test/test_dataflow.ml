(* Unit and property tests for the elastic dataflow substrate: graph
   construction, structural checking, and the cycle-accurate simulator. *)

open Pv_dataflow

let mem4 () = Array.make 16 0

(* A generator emitting values [0..n-1] on one output. *)
let counter_gen n =
  Types.Gen
    {
      Types.gen_arity = 1;
      gen_next = (fun s -> if s < n then [| s |] else [||]);
      gen_group = (fun _ -> 0);
    }

let run_graph ?cfg g =
  let mem = mem4 () in
  let outcome, stats = Sim.run ?cfg g (Memif.direct ~latency:1 mem) in
  (outcome, stats, mem)

let cycles_of = function
  | Sim.Finished { cycles } -> cycles
  | o -> Alcotest.failf "expected Finished, got %a" Sim.pp_outcome o

(* --- graph construction -------------------------------------------------- *)

let test_connect_errors () =
  let b = Graph.create () in
  let gen = Graph.add b (counter_gen 4) in
  let sink = Graph.add b Types.Sink in
  Graph.connect b (gen, 0) (sink, 0);
  Alcotest.check_raises "double-wired output"
    (Invalid_argument "connect: output 0 of node 0 (gen) already wired")
    (fun () ->
      let s2 = Graph.add b Types.Sink in
      Graph.connect b (gen, 0) (s2, 0));
  Alcotest.check_raises "bad slot"
    (Invalid_argument "connect: node 1 (sink) has no output slot 3") (fun () ->
      let s2 = Graph.add b Types.Sink in
      Graph.connect b (sink, 3) (s2, 0));
  Alcotest.check_raises "negative output slot"
    (Invalid_argument "connect: node 0 (gen) has no output slot -1") (fun () ->
      Graph.connect b (gen, -1) (sink, 0));
  Alcotest.check_raises "negative input slot"
    (Invalid_argument "connect: node 1 (sink) has no input slot -2") (fun () ->
      let g2 = Graph.add b (counter_gen 4) in
      Graph.connect b (g2, 0) (sink, -2));
  Alcotest.check_raises "unknown source node"
    (Invalid_argument "connect: no node 99") (fun () ->
      Graph.connect b (99, 0) (sink, 0));
  Alcotest.check_raises "unknown destination node"
    (Invalid_argument "connect: no node -1") (fun () ->
      Graph.connect b (gen, 0) (-1, 0))

let test_check_unwired () =
  let b = Graph.create () in
  let gen = Graph.add b (counter_gen 4) in
  ignore gen;
  let g = Graph.finalize b in
  match Check.errors g with
  | [ Check.Unwired { dir = "output"; slot = 0; _ } ] -> ()
  | errs ->
      Alcotest.failf "expected one unwired error, got %d" (List.length errs)

let test_check_cycle () =
  (* two unops feeding each other: a combinational cycle *)
  let b = Graph.create () in
  let a = Graph.add b (Types.Unop Types.Neg) in
  let c = Graph.add b (Types.Unop Types.Neg) in
  Graph.connect b (a, 0) (c, 0);
  Graph.connect b (c, 0) (a, 0);
  let g = Graph.finalize b in
  Alcotest.(check bool) "cycle detected"
    true
    (List.exists
       (function Check.Combinational_cycle _ -> true | _ -> false)
       (Check.errors g))

(* zero in-degree nodes in id order, then successors in output-slot order;
   None on a cycle *)
let test_topo_order () =
  let b = Graph.create () in
  let sink = Graph.add b Types.Sink in
  let gen = Graph.add b (counter_gen 1) in
  let fork = Graph.add b (Types.Fork 2) in
  let late = Graph.add b (Types.Unop Types.Neg) in
  let early = Graph.add b (Types.Unop Types.Neg) in
  let join = Graph.add b (Types.Join 2) in
  Graph.connect b (gen, 0) (fork, 0);
  Graph.connect b (fork, 0) (early, 0);
  Graph.connect b (fork, 1) (late, 0);
  Graph.connect b (late, 0) (join, 0);
  Graph.connect b (early, 0) (join, 1);
  Graph.connect b (join, 0) (sink, 0);
  Alcotest.(check (option (array int))) "order"
    (Some [| gen; fork; early; late; join; sink |])
    (Graph.topo_order (Graph.finalize b));
  let b = Graph.create () in
  let a = Graph.add b (Types.Unop Types.Neg) in
  let c = Graph.add b (Types.Unop Types.Neg) in
  Graph.connect b (a, 0) (c, 0);
  Graph.connect b (c, 0) (a, 0);
  Alcotest.(check (option (array int))) "cycle" None
    (Graph.topo_order (Graph.finalize b))

(* --- simulator semantics -------------------------------------------------- *)

(* gen -> unop -> sink chain sustains one token per cycle *)
let test_chain_ii1 () =
  let n = 300 in
  let b = Graph.create () in
  let gen = Graph.add b (counter_gen n) in
  let u1 = Graph.add b (Types.Unop Types.Neg) in
  let u2 = Graph.add b (Types.Unop Types.Neg) in
  let sink = Graph.add b Types.Sink in
  Graph.connect b (gen, 0) (u1, 0);
  Graph.connect b (u1, 0) (u2, 0);
  Graph.connect b (u2, 0) (sink, 0);
  let outcome, stats, _ = run_graph (Graph.finalize b) in
  let c = cycles_of outcome in
  Alcotest.(check bool) "II close to 1" true (c <= n + 8);
  Alcotest.(check int) "each node fired n times" n stats.Sim.node_fires.(1)

(* balanced fork/join diamond also sustains II=1 *)
let test_diamond_ii1 () =
  let n = 200 in
  let b = Graph.create () in
  let gen = Graph.add b (counter_gen n) in
  let fork = Graph.add b (Types.Fork 2) in
  Graph.connect b (gen, 0) (fork, 0);
  let u = Graph.add b (Types.Unop Types.Neg) in
  Graph.connect b (fork, 0) (u, 0);
  let buf = Graph.add b (Types.Buffer { transparent = true; slots = 2 }) in
  Graph.connect b (fork, 1) (buf, 0);
  let add = Graph.add b (Types.Binop Types.Add) in
  Graph.connect b (u, 0) (add, 0);
  Graph.connect b (buf, 0) (add, 1);
  let sink = Graph.add b Types.Sink in
  Graph.connect b (add, 0) (sink, 0);
  let outcome, _, _ = run_graph (Graph.finalize b) in
  Alcotest.(check bool) "II close to 1" true (cycles_of outcome <= n + 10)

(* -x + x = 0 for every token: functional correctness through the diamond *)
let test_diamond_values () =
  let n = 50 in
  let b = Graph.create () in
  let gen = Graph.add b (counter_gen n) in
  let fork = Graph.add b (Types.Fork 2) in
  Graph.connect b (gen, 0) (fork, 0);
  let u = Graph.add b (Types.Unop Types.Neg) in
  Graph.connect b (fork, 0) (u, 0);
  let buf = Graph.add b (Types.Buffer { transparent = true; slots = 2 }) in
  Graph.connect b (fork, 1) (buf, 0);
  let add = Graph.add b (Types.Binop Types.Add) in
  Graph.connect b (u, 0) (add, 0);
  Graph.connect b (buf, 0) (add, 1);
  (* store each sum to memory at address = a counter via a store port *)
  let st = Graph.add b (Types.Store { port = 0 }) in
  let czero = Graph.add b (Types.Const 3) in
  (* address constant 3: all results land on the same word; all must be 0 *)
  let fork2 = Graph.add b (Types.Fork 2) in
  Graph.connect b (add, 0) (fork2, 0);
  Graph.connect b (fork2, 0) (czero, 0);
  Graph.connect b (czero, 0) (st, 0);
  Graph.connect b (fork2, 1) (st, 1);
  let mem = mem4 () in
  mem.(3) <- 42;
  let outcome, _ = Sim.run (Graph.finalize b) (Memif.direct ~latency:1 mem) in
  ignore (cycles_of outcome);
  Alcotest.(check int) "all sums were zero" 0 mem.(3)

(* branch routes by condition *)
let test_branch_routing () =
  let n = 40 in
  let b = Graph.create () in
  let gen = Graph.add b (counter_gen n) in
  let fork = Graph.add b (Types.Fork 2) in
  Graph.connect b (gen, 0) (fork, 0);
  (* cond = value land 1 *)
  let one = Graph.add b (Types.Const 1) in
  let fork1 = Graph.add b (Types.Fork 2) in
  Graph.connect b (fork, 0) (fork1, 0);
  Graph.connect b (fork1, 0) (one, 0);
  let band = Graph.add b (Types.Binop Types.And) in
  Graph.connect b (fork1, 1) (band, 0);
  Graph.connect b (one, 0) (band, 1);
  let br = Graph.add b Types.Branch in
  Graph.connect b (fork, 1) (br, 0);
  Graph.connect b (band, 0) (br, 1);
  (* taken (odd) -> store to addr 0 as count; not taken -> sink *)
  let st = Graph.add b (Types.Store { port = 0 }) in
  let addr = Graph.add b (Types.Const 0) in
  let fork2 = Graph.add b (Types.Fork 2) in
  Graph.connect b (br, 0) (fork2, 0);
  Graph.connect b (fork2, 0) (addr, 0);
  Graph.connect b (addr, 0) (st, 0);
  Graph.connect b (fork2, 1) (st, 1);
  let sink = Graph.add b Types.Sink in
  Graph.connect b (br, 1) (sink, 0);
  let mem = mem4 () in
  let outcome, _ = Sim.run (Graph.finalize b) (Memif.direct ~latency:1 mem) in
  ignore (cycles_of outcome);
  (* last odd value stored is n-1 = 39 *)
  Alcotest.(check int) "last odd token" 39 mem.(0)

(* pipelined binop (latency > 0) preserves order and II; the store's data
   input gets a slack buffer because its address side is one stage longer
   (the same fix the Balance pass applies automatically) *)
let test_pipelined_op () =
  let n = 120 in
  let b = Graph.create () in
  let gen = Graph.add b (counter_gen n) in
  let fork = Graph.add b (Types.Fork 2) in
  Graph.connect b (gen, 0) (fork, 0);
  let mul = Graph.add b (Types.Binop Types.Mul) in
  Graph.connect b (fork, 0) (mul, 0);
  Graph.connect b (fork, 1) (mul, 1);
  let st = Graph.add b (Types.Store { port = 0 }) in
  let addr = Graph.add b (Types.Const 5) in
  let fork2 = Graph.add b (Types.Fork 2) in
  Graph.connect b (mul, 0) (fork2, 0);
  Graph.connect b (fork2, 0) (addr, 0);
  Graph.connect b (addr, 0) (st, 0);
  let slack = Graph.add b (Types.Buffer { transparent = true; slots = 2 }) in
  Graph.connect b (fork2, 1) (slack, 0);
  Graph.connect b (slack, 0) (st, 1);
  let mem = mem4 () in
  let outcome, _ = Sim.run (Graph.finalize b) (Memif.direct ~latency:1 mem) in
  let c = cycles_of outcome in
  Alcotest.(check int) "last square" ((n - 1) * (n - 1)) mem.(5);
  Alcotest.(check bool) "pipelined II close to 1" true (c <= n + 16)

(* load port round-trips values through memory *)
let test_load_port () =
  let n = 10 in
  let b = Graph.create () in
  let gen = Graph.add b (counter_gen n) in
  let load = Graph.add b (Types.Load { port = 0 }) in
  Graph.connect b (gen, 0) (load, 0);
  let st = Graph.add b (Types.Store { port = 1 }) in
  let fork = Graph.add b (Types.Fork 2) in
  Graph.connect b (load, 0) (fork, 0);
  let caddr = Graph.add b (Types.Const 15) in
  Graph.connect b (fork, 0) (caddr, 0);
  Graph.connect b (caddr, 0) (st, 0);
  Graph.connect b (fork, 1) (st, 1);
  let mem = mem4 () in
  Array.iteri (fun i _ -> mem.(i) <- (i * 7) mod 13) mem;
  let expect = mem.(n - 1) in
  let outcome, _ = Sim.run (Graph.finalize b) (Memif.direct ~latency:2 mem) in
  ignore (cycles_of outcome);
  Alcotest.(check int) "last loaded value stored" expect mem.(15)

(* a backend answering a request the Load never presented would break the
   Load's response mirror, which decides when a sleeping Load polls.  The
   Load polls only while it holds a request, so no such answer is taken
   and the run ends without raising *)
let test_load_stray_response () =
  let b = Graph.create () in
  let gen = Graph.add b (counter_gen 4) in
  let load = Graph.add b (Types.Load { port = 3 }) in
  let sink = Graph.add b Types.Sink in
  Graph.connect b (gen, 0) (load, 0);
  Graph.connect b (load, 0) (sink, 0);
  let direct = Memif.direct ~latency:1 (mem4 ()) in
  let outstanding = ref 0 and stray_polls = ref 0 in
  let rogue =
    {
      direct with
      Memif.load_req =
        (fun ~port ~key ~addr ->
          let ok = direct.Memif.load_req ~port ~key ~addr in
          if ok then incr outstanding;
          ok);
      Memif.load_poll =
        (fun ~port:_ slot ->
          if !outstanding = 0 then incr stray_polls else decr outstanding;
          slot.Memif.ls_key <- Types.Token.make ~seq:7 ~epoch:0;
          slot.Memif.ls_value <- 0;
          true);
    }
  in
  let cfg = { Sim.default_config with Sim.engine = Sim.Scan } in
  ignore (Sim.run ~cfg (Graph.finalize b) rogue);
  Alcotest.(check int) "no poll without an outstanding request" 0
    !stray_polls

(* the deadlock detector fires on a stuck circuit *)
let test_deadlock_detection () =
  let b = Graph.create () in
  let gen = Graph.add b (counter_gen 10) in
  (* a join whose second operand never arrives *)
  let join = Graph.add b (Types.Join 2) in
  Graph.connect b (gen, 0) (join, 0);
  let gen2 =
    Graph.add b
      (Types.Gen
         {
           Types.gen_arity = 1;
           gen_next = (fun _ -> [||]);  (* never emits *)
           gen_group = (fun _ -> 0);
         })
  in
  Graph.connect b (gen2, 0) (join, 1);
  let sink = Graph.add b Types.Sink in
  Graph.connect b (join, 0) (sink, 0);
  let cfg = { Sim.default_config with Sim.stall_limit = 64 } in
  let outcome, _, _ = run_graph ~cfg (Graph.finalize b) in
  match outcome with
  | Sim.Deadlock _ -> ()
  | o -> Alcotest.failf "expected deadlock, got %a" Sim.pp_outcome o

(* merge forwards whichever input is ready *)
let test_merge () =
  let n = 20 in
  let b = Graph.create () in
  let gen = Graph.add b (counter_gen n) in
  let merge = Graph.add b (Types.Merge 2) in
  Graph.connect b (gen, 0) (merge, 0);
  let gen2 =
    Graph.add b
      (Types.Gen
         {
           Types.gen_arity = 1;
           gen_next = (fun _ -> [||]);
           gen_group = (fun _ -> 0);
         })
  in
  Graph.connect b (gen2, 0) (merge, 1);
  let sink = Graph.add b Types.Sink in
  Graph.connect b (merge, 0) (sink, 0);
  let outcome, stats, _ = run_graph (Graph.finalize b) in
  ignore (cycles_of outcome);
  Alcotest.(check int) "merge fired n times" n stats.Sim.node_fires.(1)

(* --- property tests ------------------------------------------------------- *)

(* an opaque buffer of any size is a FIFO: outputs appear in push order *)
let prop_buffer_fifo =
  QCheck.Test.make ~count:50 ~name:"buffer preserves order and count"
    QCheck.(pair (int_range 1 8) (int_range 1 64))
    (fun (slots, n) ->
      let b = Graph.create () in
      let gen = Graph.add b (counter_gen n) in
      let buf = Graph.add b (Types.Buffer { transparent = false; slots }) in
      Graph.connect b (gen, 0) (buf, 0);
      let st = Graph.add b (Types.Store { port = 0 }) in
      let fork = Graph.add b (Types.Fork 2) in
      Graph.connect b (buf, 0) (fork, 0);
      let caddr = Graph.add b (Types.Const 2) in
      Graph.connect b (fork, 0) (caddr, 0);
      Graph.connect b (caddr, 0) (st, 0);
      Graph.connect b (fork, 1) (st, 1);
      let mem = mem4 () in
      let outcome, stats = Sim.run (Graph.finalize b) (Memif.direct ~latency:1 mem) in
      (match outcome with Sim.Finished _ -> () | _ -> QCheck.Test.fail_report "not finished");
      ignore stats;
      (* last value out equals last value in: order preserved end-to-end *)
      mem.(2) = n - 1)

(* chains of arbitrary unops terminate with every token delivered *)
let prop_chain_total =
  QCheck.Test.make ~count:50 ~name:"unop chains deliver every token"
    QCheck.(pair (int_range 0 12) (int_range 1 80))
    (fun (depth, n) ->
      let b = Graph.create () in
      let gen = Graph.add b (counter_gen n) in
      let rec chain src k =
        if k = 0 then src
        else begin
          let u = Graph.add b (Types.Unop Types.Neg) in
          Graph.connect b src (u, 0);
          chain (u, 0) (k - 1)
        end
      in
      let last = chain (gen, 0) depth in
      let sink = Graph.add b Types.Sink in
      Graph.connect b last (sink, 0);
      let outcome, stats = Sim.run (Graph.finalize b) (Memif.direct ~latency:1 (mem4 ())) in
      (match outcome with Sim.Finished _ -> true | _ -> false)
      && stats.Sim.node_fires.(sink) = n
      && stats.Sim.gen_instances = n)

(* --- packed token representation ----------------------------------------- *)

(* boundary round-trips: every corner of both bitfields *)
let test_token_roundtrip_bounds () =
  List.iter
    (fun seq ->
      List.iter
        (fun epoch ->
          let k = Types.Token.make ~seq ~epoch in
          Alcotest.(check int)
            (Printf.sprintf "seq of (%d,%d)" seq epoch)
            seq (Types.Token.seq k);
          Alcotest.(check int)
            (Printf.sprintf "epoch of (%d,%d)" seq epoch)
            epoch (Types.Token.epoch k);
          Alcotest.(check bool) "present" true (k >= 0))
        [ 0; 1; Types.Token.max_epoch - 1; Types.Token.max_epoch ])
    [ 0; 1; Types.Token.max_seq - 1; Types.Token.max_seq ]

let test_token_overflow_guard () =
  let must_raise name f =
    match f () with
    | (_ : Types.Token.t) -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument _ -> ()
  in
  must_raise "seq -1" (fun () -> Types.Token.make ~seq:(-1) ~epoch:0);
  must_raise "seq max+1" (fun () ->
      Types.Token.make ~seq:(Types.Token.max_seq + 1) ~epoch:0);
  must_raise "epoch -1" (fun () -> Types.Token.make ~seq:0 ~epoch:(-1));
  must_raise "epoch max+1" (fun () ->
      Types.Token.make ~seq:0 ~epoch:(Types.Token.max_epoch + 1));
  (* the hot-path packer never raises: the epoch wraps modulo 2^20 *)
  Alcotest.(check int)
    "unsafe wraps epoch" 1
    (Types.Token.epoch
       (Types.Token.unsafe ~seq:3 ~epoch:(Types.Token.max_epoch + 2)));
  Alcotest.(check int) "unsafe keeps seq" 3
    (Types.Token.seq
       (Types.Token.unsafe ~seq:3 ~epoch:(Types.Token.max_epoch + 2)))

let test_token_order_and_cutoff () =
  (* key order is lexicographic (seq, epoch), and [first] is the squash
     cutoff: k >= first ~seq:s iff seq k >= s *)
  let k_lo = Types.Token.make ~seq:4 ~epoch:9 in
  let k_hi = Types.Token.make ~seq:5 ~epoch:0 in
  Alcotest.(check bool) "seq dominates epoch" true (k_lo < k_hi);
  Alcotest.(check bool) "cutoff below" true
    (k_lo < Types.Token.first ~seq:5);
  Alcotest.(check bool) "cutoff at" true (k_hi >= Types.Token.first ~seq:5);
  Alcotest.(check int) "with_epoch restamps" 7
    (Types.Token.epoch (Types.Token.with_epoch k_lo ~epoch:7));
  Alcotest.(check int) "with_epoch keeps seq" 4
    (Types.Token.seq (Types.Token.with_epoch k_lo ~epoch:7));
  Alcotest.(check bool) "none is absent" true (Types.Token.none < 0)

let test_token_pp () =
  (* the packed pair still pretty-prints its decoded fields *)
  let tk = Types.token ~epoch:2 ~seq:7 41 in
  Alcotest.(check string)
    "pp_token decodes the packed key" "{seq=7;ep=2;v=41}"
    (Format.asprintf "%a" Types.pp_token tk);
  Alcotest.(check int) "value accessor" 41 (Types.Token.value tk);
  Alcotest.(check int) "with_value" 6
    (Types.Token.value (Types.Token.with_value tk 6))

let prop_token_roundtrip =
  QCheck.Test.make ~count:1000 ~name:"token pack/unpack round-trips"
    QCheck.(
      pair (int_range 0 Pv_dataflow.Types.Token.max_seq)
        (int_range 0 Pv_dataflow.Types.Token.max_epoch))
    (fun (seq, epoch) ->
      let k = Types.Token.make ~seq ~epoch in
      Types.Token.seq k = seq
      && Types.Token.epoch k = epoch
      && k = Types.Token.unsafe ~seq ~epoch
      && Types.Token.with_epoch k ~epoch = k
      && k >= Types.Token.first ~seq
      && (seq = Types.Token.max_seq || k < Types.Token.first ~seq:(seq + 1)))

(* --- dense operator codes ------------------------------------------------ *)

(* the simulator evaluates an operator by its code, the reference
   interpreter by its variant; over a grid with zero divisors, negative
   operands, the extremes and the shift amounts the masking treats
   specially (0, 61, 62, 63, 64), both must agree on every unit *)
let operand_grid =
  [ min_int; -1_000_003; -64; -63; -7; -2; -1; 0; 1; 2; 3; 7; 61; 62; 63; 64;
    65; 1_000_003; max_int ]

let test_op_codes () =
  let agree name want got a b =
    if want <> got then
      Alcotest.failf "%s on (%d, %d): %d by variant, %d by code" name a b want
        got
  in
  Array.iteri
    (fun i op ->
      (* Elaborate's component table and the cache's latency fingerprint
         enumerate [binops] as the codes *)
      Alcotest.(check int) (Printf.sprintf "binop_code binops.(%d)" i) i
        (Types.binop_code op);
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              agree (Printf.sprintf "binop %d" i) (Types.eval_binop op a b)
                (Types.eval_binop_code (Types.binop_code op) a b)
                a b)
            operand_grid)
        operand_grid)
    Types.binops;
  Alcotest.check_raises "no binop code past the table"
    (Invalid_argument "eval_binop_code") (fun () ->
      ignore (Types.eval_binop_code (Array.length Types.binops) 1 1));
  List.iteri
    (fun i op ->
      Alcotest.(check int) (Types.string_of_unop op ^ " code") i
        (Types.unop_code op);
      List.iter
        (fun a ->
          agree (Types.string_of_unop op) (Types.eval_unop op a)
            (Types.eval_unop_code (Types.unop_code op) a)
            a 0)
        operand_grid)
    Types.[ Neg; Not; Lnot ]

let () =
  Alcotest.run "pv_dataflow"
    [
      ( "graph",
        [
          Alcotest.test_case "connect errors" `Quick test_connect_errors;
          Alcotest.test_case "unwired detection" `Quick test_check_unwired;
          Alcotest.test_case "cycle detection" `Quick test_check_cycle;
          Alcotest.test_case "topological order" `Quick test_topo_order;
        ] );
      ( "sim",
        [
          Alcotest.test_case "chain II=1" `Quick test_chain_ii1;
          Alcotest.test_case "diamond II=1" `Quick test_diamond_ii1;
          Alcotest.test_case "diamond values" `Quick test_diamond_values;
          Alcotest.test_case "branch routing" `Quick test_branch_routing;
          Alcotest.test_case "pipelined op" `Quick test_pipelined_op;
          Alcotest.test_case "load port" `Quick test_load_port;
          Alcotest.test_case "stray load response" `Quick
            test_load_stray_response;
          Alcotest.test_case "deadlock detection" `Quick test_deadlock_detection;
          Alcotest.test_case "merge" `Quick test_merge;
        ] );
      ( "token",
        [
          Alcotest.test_case "round-trip at field bounds" `Quick
            test_token_roundtrip_bounds;
          Alcotest.test_case "overflow guard" `Quick test_token_overflow_guard;
          Alcotest.test_case "key order and squash cutoff" `Quick
            test_token_order_and_cutoff;
          Alcotest.test_case "pretty-printing" `Quick test_token_pp;
        ] );
      ( "ops",
        [ Alcotest.test_case "code = variant semantics" `Quick test_op_codes ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_buffer_fifo;
          QCheck_alcotest.to_alcotest prop_chain_total;
          QCheck_alcotest.to_alcotest prop_token_roundtrip;
        ] );
    ]
