(* Fault-injection and resilience tests.

   Detected faults (drop-replay, flip-replay, spurious squash, ECC-flagged
   premature-queue corruption) drive the existing squash/replay machinery
   and must be fully recoverable: the final memory matches the reference
   interpreter.  Silent faults must never produce a silent wrong answer:
   they either verify clean anyway or end in a diagnosed Deadlock/Timeout
   whose post-mortem names the injected disturbance.  Swept over every
   channel, one silent drop or flip may also finish with mismatches that
   verification lists, but no exception escapes the run.  A stuck squash
   source must trip the livelock guard, which degrades to non-speculative
   admission and still completes correctly. *)

open Pv_core
module Fault = Pv_dataflow.Fault
module Sim = Pv_dataflow.Sim
module Graph = Pv_dataflow.Graph
module MI = Pv_dataflow.Memif

let kernels =
  [ "polyn_mult"; "triangular_tight"; "cond_update"; "histogram"; "fn_dependent" ]

let compile name = Pipeline.compile (Pv_kernels.Defs.by_name name)

let run_with_faults ?(dis = Scheme.prevv 16) ?(stall_limit = 4096)
    ?(max_cycles = 200_000) compiled faults =
  let sim_cfg =
    { Sim.default_config with Sim.faults; stall_limit; max_cycles }
  in
  Pipeline.simulate ~sim_cfg compiled dis

let outcome_str result =
  Format.asprintf "%a%a" Sim.pp_outcome result.Pipeline.outcome
    (Format.pp_print_option Sim.pp_post_mortem)
    (Pipeline.post_mortem result)

(* --- recoverable plans --------------------------------------------------- *)

(* Every seed-derived plan of detected faults must end Finished with memory
   identical to the reference interpreter, on every kernel. *)
let test_recoverable name () =
  let compiled = compile name in
  let fault_free = Pipeline.simulate compiled (Scheme.prevv 16) in
  let horizon = max 20 (fault_free.Pipeline.cycles / 2) in
  let fired = ref 0 in
  for seed = 1 to 6 do
    let faults =
      Fault.random_recoverable ~n:5 ~seed
        ~n_chans:(Graph.n_chans compiled.Pipeline.graph)
        ~max_seq:(Pv_frontend.Trace.length compiled.Pipeline.trace)
        ~horizon ()
    in
    let result = run_with_faults compiled faults in
    (match result.Pipeline.outcome with
    | Sim.Finished _ -> ()
    | _ ->
        Alcotest.failf "%s seed %d under %s: %s" name seed
          (Fault.to_string faults) (outcome_str result));
    (match Pipeline.verify compiled result with
    | [] -> ()
    | l ->
        Alcotest.failf "%s seed %d under %s: %d memory mismatches" name seed
          (Fault.to_string faults) (List.length l));
    fired :=
      !fired + result.Pipeline.mem_stats.MI.faults
      + result.Pipeline.mem_stats.MI.squashes
  done;
  if !fired = 0 then
    Alcotest.failf "%s: no injected fault ever took effect (vacuous test)" name

(* One plan exercising each detected kind at once, on an ambiguous kernel:
   dropped token, flipped token, a channel stall, a spurious squash and an
   ECC-flagged queue corruption — still Finished, still correct. *)
let test_all_detected_kinds name () =
  let compiled = compile name in
  let g = compiled.Pipeline.graph in
  let chan_a = 0 and chan_b = Graph.n_chans g / 2 in
  let faults =
    [
      { Fault.at_cycle = 12; action = Fault.Drop_replay { chan = chan_a } };
      { Fault.at_cycle = 20; action = Fault.Flip_replay { chan = chan_b; mask = 0xff } };
      { Fault.at_cycle = 28; action = Fault.Stall { chan = chan_a; cycles = 17 } };
      { Fault.at_cycle = 36; action = Fault.Backend (Fault.B_squash { seq = 7 }) };
      {
        Fault.at_cycle = 44;
        action =
          Fault.Backend
            (Fault.B_pq_flip { inst = 0; slot = 0; mask = 0xffff; detect = true });
      };
    ]
  in
  let result = run_with_faults compiled faults in
  (match result.Pipeline.outcome with
  | Sim.Finished _ -> ()
  | _ -> Alcotest.failf "%s: %s" name (outcome_str result));
  Alcotest.(check int)
    (name ^ " memory matches interpreter")
    0
    (List.length (Pipeline.verify compiled result));
  Alcotest.(check bool)
    "at least one backend fault accepted" true
    (result.Pipeline.mem_stats.MI.faults > 0)

(* --- unrecoverable plans: diagnosed, never silently wrong ---------------- *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* common post-mortem obligations; returns the post-mortem so each caller
   can additionally assert its failure's specific signature *)
let diagnosed name result =
  match result.Pipeline.outcome with
  | Sim.Deadlock { post_mortem = pm; _ } | Sim.Timeout { post_mortem = pm; _ } ->
      Alcotest.(check bool)
        (name ^ ": an injected fault fired")
        true
        (List.exists (fun ap -> ap.Fault.ap_fired_at <> None) pm.Sim.pm_faults);
      Alcotest.(check bool)
        (name ^ ": backend snapshot present")
        true
        (String.length pm.Sim.pm_backend > 0);
      let rendered = Format.asprintf "%a" Sim.pp_post_mortem pm in
      Alcotest.(check bool) (name ^ ": post-mortem renders") true
        (String.length rendered > 40);
      pm
  | Sim.Finished _ -> Alcotest.failf "%s: expected a diagnosed hang" name

(* silently losing a skip notification erases an arrival the commit frontier
   is waiting for: the datapath drains but the run can never retire; the
   watchdog must catch it and the fault log must name the lost token.
   (A skip channel starves the frontier directly; a data-channel drop is
   the case below.) *)
let test_unrecoverable_drop () =
  let compiled = compile "cond_update" in
  let g = compiled.Pipeline.graph in
  let chan =
    let found = ref None in
    Graph.iter_chans
      (fun c ->
        if !found = None then
          match (Graph.node g c.Graph.dst.Graph.node).Graph.kind with
          | Pv_dataflow.Types.Skip _ -> found := Some c.Graph.cid
          | _ -> ())
      g;
    match !found with
    | Some c -> c
    | None -> Alcotest.fail "cond_update has no skip input channel"
  in
  let faults = [ { Fault.at_cycle = 15; action = Fault.Drop { chan } } ] in
  let result = run_with_faults ~stall_limit:512 compiled faults in
  let pm = diagnosed "silent drop" result in
  let rendered = Format.asprintf "%a" Sim.pp_post_mortem pm in
  Alcotest.(check bool) "fault log names the lost token" true
    (contains rendered "lost")

(* a silent drop on a control channel mis-pairs the streams: a later
   token reaches an ambiguous port under an iteration whose group does not
   hold that port.  PreVV refuses the op rather than crash, so the run
   ends in a diagnosed hang whose backend line names the refused port,
   seq and group — as the LSQ, which has no ROM lookup, already did. *)
let test_mispaired_drop () =
  let compiled = compile "histogram" in
  let faults = Result.get_ok (Fault.parse "30:drop:c15") in
  let pm =
    diagnosed "mis-paired drop" (run_with_faults ~stall_limit:512 compiled faults)
  in
  Alcotest.(check bool) "backend names the refused op" true
    (contains pm.Sim.pm_backend "refused: port"
    && contains pm.Sim.pm_backend "seq"
    && contains pm.Sim.pm_backend "group");
  ignore
    (diagnosed "mis-paired drop under fast-lsq"
       (run_with_faults ~dis:Scheme.fast_lsq ~stall_limit:512 compiled faults))

(* a silent drop or flip upstream of a store port can hand it data of a
   later instance than its pending address: the port refuses the data,
   and the post-mortem names the port and both seqs *)
let test_mispaired_store () =
  List.iter
    (fun (name, plan, port, addr_seq, data_seq) ->
      let faults = Result.get_ok (Fault.parse plan) in
      let pm =
        diagnosed (name ^ " " ^ plan)
          (run_with_faults ~stall_limit:512 (compile name) faults)
      in
      let want =
        Printf.sprintf "store port %d: pending addr seq=%d but data seq=%d"
          port addr_seq data_seq
      in
      Alcotest.(check bool) (want ^ " listed") true
        (List.exists (fun (_, _, why) -> why = want) pm.Sim.pm_stalled))
    [
      ("2mm", "30:drop:c15", 3, 28, 29);
      ("gaussian", "40:flip:c8:0x1", 4, 19, 20);
    ]

(* a silent drop on gaussian's first channel leaves 54 nodes stalled; most
   are backpressured or starved, and the loads the backend refuses, where
   the hang is rooted, have ids above the first 16 stalled ones.  The
   post-mortem lists them ahead of the waiting nodes and says how many it
   cut *)
let test_stalled_rank () =
  let faults = Result.get_ok (Fault.parse "30:drop:c0") in
  let pm =
    diagnosed "gaussian 30:drop:c0"
      (run_with_faults ~stall_limit:512 (compile "gaussian") faults)
  in
  let refused = "inputs ready but refused by memory backend" in
  List.iter
    (fun nid ->
      Alcotest.(check bool)
        (Printf.sprintf "load_a#%d listed as refused" nid)
        true
        (List.mem (nid, "load_a", refused) pm.Sim.pm_stalled))
    [ 27; 34 ];
  Alcotest.(check int) "listed" 16 (List.length pm.Sim.pm_stalled);
  Alcotest.(check int) "stalled in all" 54 pm.Sim.pm_stalled_total;
  Alcotest.(check bool) "the cut is counted" true
    (contains (Format.asprintf "%a" Sim.pp_post_mortem pm) "… and 38 more")

(* a stall longer than the watchdog freezes the pipeline: Deadlock, with
   the frozen channel reported *)
let test_unrecoverable_stall () =
  let compiled = compile "histogram" in
  let faults =
    [ { Fault.at_cycle = 10; action = Fault.Stall { chan = 0; cycles = 1_000_000 } } ]
  in
  let result = run_with_faults ~stall_limit:512 compiled faults in
  let pm = diagnosed "endless stall" result in
  Alcotest.(check bool) "frozen channel listed" true
    (List.mem 0 pm.Sim.pm_fault_stalls);
  Alcotest.(check bool) "a stalled node is named" true (pm.Sim.pm_stalled <> [])

(* an undetected SEU on a premature-queue valid bit erases the record of an
   operation that already happened: the commit frontier waits forever *)
let test_unrecoverable_pq_drop () =
  let compiled = compile "histogram" in
  let faults =
    [ { Fault.at_cycle = 20; action = Fault.Backend (Fault.B_pq_drop { inst = 0; slot = 0 }) } ]
  in
  let result = run_with_faults ~stall_limit:512 compiled faults in
  ignore (diagnosed "silent PQ drop" result)

(* --- single-fault sweep ---------------------------------------------------- *)

(* FUZZ_ITERS set: the deep sweep (all five paper kernels, stall plans too) *)
let deep_sweep = Sys.getenv_opt "FUZZ_ITERS" <> None

(* One silent fault at cycle 30 on each channel in turn.  Whatever it hits
   (a loop counter, a branch condition, a store port's address or data),
   the run ends Finished, verified or with its mismatches listed, or in a
   Deadlock/Timeout with a rendered post-mortem: no exception escapes. *)
let test_single_fault_sweep () =
  let kernels =
    if deep_sweep then
      List.map (fun k -> k.Pv_kernels.Ast.name)
        (Pv_kernels.Defs.paper_benchmarks ())
    else [ "2mm"; "gaussian" ]
  in
  let actions chan =
    [ Fault.Drop { chan }; Fault.Flip { chan; mask = 1 } ]
    @ if deep_sweep then [ Fault.Stall { chan; cycles = 1_000_000 } ] else []
  in
  let runs = ref 0 in
  List.iter
    (fun name ->
      let compiled = compile name in
      List.iter
        (fun scheme ->
          let dis = Result.get_ok (Scheme.of_string scheme) in
          let max_cycles =
            (4 * (Pipeline.simulate compiled dis).Pipeline.cycles) + 1000
          in
          for chan = 0 to Graph.n_chans compiled.Pipeline.graph - 1 do
            List.iter
              (fun action ->
                let plan = [ { Fault.at_cycle = 30; action } ] in
                let where =
                  Printf.sprintf "%s/%s under %s" name scheme
                    (Fault.to_string plan)
                in
                incr runs;
                match
                  let result =
                    run_with_faults ~dis ~stall_limit:512 ~max_cycles compiled
                      plan
                  in
                  (result, Pipeline.verify compiled result)
                with
                | exception e ->
                    Alcotest.failf "%s: %s escaped" where (Printexc.to_string e)
                | { Pipeline.outcome = Sim.Finished _; _ }, _ -> ()
                | { Pipeline.outcome = Sim.Deadlock { post_mortem = pm; _ }; _ }, _
                | { Pipeline.outcome = Sim.Timeout { post_mortem = pm; _ }; _ }, _ ->
                    if Format.asprintf "%a" Sim.pp_post_mortem pm = "" then
                      Alcotest.failf "%s: hang without a post-mortem" where)
              (actions chan)
          done)
        [ "dynamatic"; "prevv16" ])
    kernels;
  Printf.printf "%d single-fault runs\n" !runs

(* --- livelock guard ------------------------------------------------------ *)

(* a squash source stuck on one iteration must trip the guard: the backend
   records the degradation, stops speculating, and still finishes with the
   correct memory *)
let test_livelock_guard () =
  let compiled = compile "histogram" in
  let faults =
    List.init 30 (fun k ->
        { Fault.at_cycle = 2 + (2 * k);
          action = Fault.Backend (Fault.B_squash { seq = 2 }) })
  in
  let dis =
    Scheme.Prevv
      { (Pv_prevv.Backend.named ~depth:16) with Pv_prevv.Backend.squash_budget = 4 }
  in
  let result = run_with_faults ~dis compiled faults in
  (match result.Pipeline.outcome with
  | Sim.Finished _ -> ()
  | _ -> Alcotest.failf "livelock run did not finish: %s" (outcome_str result));
  Alcotest.(check bool) "guard engaged (degraded recorded)" true
    (result.Pipeline.mem_stats.MI.degraded >= 1);
  Alcotest.(check bool) "squash streak exceeded the budget" true
    (result.Pipeline.mem_stats.MI.squashes > 4);
  Alcotest.(check int) "memory still matches interpreter" 0
    (List.length (Pipeline.verify compiled result))

(* a storm shorter than the budget must NOT trip the guard: ordinary
   recoverable turbulence is absorbed by plain squash/replay, and the run
   stays fully speculative *)
let test_livelock_guard_off () =
  let compiled = compile "histogram" in
  let faults =
    List.init 6 (fun k ->
        { Fault.at_cycle = 2 + (2 * k);
          action = Fault.Backend (Fault.B_squash { seq = 2 }) })
  in
  let result = run_with_faults compiled faults in
  (match result.Pipeline.outcome with
  | Sim.Finished _ -> ()
  | _ -> Alcotest.failf "did not finish: %s" (outcome_str result));
  Alcotest.(check int) "default budget untripped" 0
    result.Pipeline.mem_stats.MI.degraded;
  Alcotest.(check int) "memory matches interpreter" 0
    (List.length (Pipeline.verify compiled result))

(* --- plan syntax --------------------------------------------------------- *)

let test_parse_roundtrip () =
  let plan =
    [
      { Fault.at_cycle = 40; action = Fault.Drop { chan = 3 } };
      { Fault.at_cycle = 41; action = Fault.Drop_replay { chan = 4 } };
      { Fault.at_cycle = 100; action = Fault.Stall { chan = 7; cycles = 64 } };
      { Fault.at_cycle = 120; action = Fault.Flip { chan = 2; mask = 0xff } };
      { Fault.at_cycle = 130; action = Fault.Flip_replay { chan = 9; mask = 0x10 } };
      { Fault.at_cycle = 200; action = Fault.Backend (Fault.B_squash { seq = 5 }) };
      {
        Fault.at_cycle = 210;
        action =
          Fault.Backend
            (Fault.B_pq_flip { inst = 1; slot = 2; mask = 0xbeef; detect = true });
      };
      {
        Fault.at_cycle = 220;
        action = Fault.Backend (Fault.B_pq_drop { inst = 0; slot = 3 });
      };
    ]
  in
  (match Fault.parse (Fault.to_string plan) with
  | Ok p ->
      Alcotest.(check string) "round-trips" (Fault.to_string plan)
        (Fault.to_string p)
  | Error e -> Alcotest.failf "parse of own output failed: %s" e);
  (match Fault.parse "" with
  | Ok [] -> ()
  | _ -> Alcotest.fail "empty string should parse to the empty plan");
  List.iter
    (fun bad ->
      match Fault.parse bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%S should not parse" bad)
    [ "40:drop"; "x:drop:c3"; "40:drop:3"; "40:frobnicate:c1"; "40:stall:c1";
      "40:pqflip:0:0:1:maybe" ]

let test_random_plans_deterministic () =
  let mk seed =
    Fault.to_string
      (Fault.random_recoverable ~seed ~n_chans:50 ~max_seq:100 ~horizon:400 ())
  in
  Alcotest.(check string) "same seed, same plan" (mk 11) (mk 11);
  Alcotest.(check bool) "different seeds differ" true (mk 11 <> mk 12)

(* --- fragmentation ablation ---------------------------------------------- *)

(* with interior-slot collapse disabled (the naive Fig. 4 pointer queue) a
   small queue fragments: retired loads stuck behind live stores eat
   capacity that only head-skipping can slowly reclaim.  It never wedges —
   the wrapped head pointer always finds the oldest live entry — but at
   tight depths the lost capacity is a measurable admission-stall tax.
   Both variants must still verify; the naive one must be strictly slower
   at every depth and markedly slower at the largest. *)
let test_fragmentation_tax () =
  let compiled = compile "triangular" in
  let base = Pv_prevv.Backend.named ~depth:16 in
  let cycles_at depth_q collapse_queue =
    let dis =
      Scheme.Prevv { base with Pv_prevv.Backend.depth_q; collapse_queue }
    in
    let result = run_with_faults ~dis ~stall_limit:1024 compiled [] in
    (match result.Pipeline.outcome with
    | Sim.Finished _ -> ()
    | _ ->
        Alcotest.failf "depth_q=%d collapse=%b: %s" depth_q collapse_queue
          (outcome_str result));
    Alcotest.(check int)
      (Printf.sprintf "depth_q=%d collapse=%b verifies" depth_q collapse_queue)
      0
      (List.length (Pipeline.verify compiled result));
    result.Pipeline.cycles
  in
  let ratios =
    List.map
      (fun depth_q ->
        let naive = cycles_at depth_q false in
        let collapsing = cycles_at depth_q true in
        Alcotest.(check bool)
          (Printf.sprintf "depth_q=%d: fragmentation costs cycles (%d vs %d)"
             depth_q naive collapsing)
          true (naive > collapsing);
        float_of_int naive /. float_of_int collapsing)
      [ 4; 5; 6 ]
  in
  Alcotest.(check bool) "tax exceeds 25% at some tight depth" true
    (List.exists (fun r -> r > 1.25) ratios)

let () =
  Alcotest.run "fault"
    [
      ( "recoverable",
        List.map
          (fun name -> Alcotest.test_case name `Quick (test_recoverable name))
          kernels );
      ( "detected-kinds",
        [
          Alcotest.test_case "histogram" `Quick
            (test_all_detected_kinds "histogram");
          Alcotest.test_case "triangular_tight" `Quick
            (test_all_detected_kinds "triangular_tight");
        ] );
      ( "unrecoverable",
        [
          Alcotest.test_case "silent drop wedges the commit frontier" `Quick
            test_unrecoverable_drop;
          Alcotest.test_case "mis-paired drop is refused, not fatal" `Quick
            test_mispaired_drop;
          Alcotest.test_case "mis-paired store data is refused" `Quick
            test_mispaired_store;
          Alcotest.test_case "root-cause nodes survive the stalled cap" `Quick
            test_stalled_rank;
          Alcotest.test_case "endless stall deadlocks" `Quick
            test_unrecoverable_stall;
          Alcotest.test_case "silent PQ drop wedges the frontier" `Quick
            test_unrecoverable_pq_drop;
          Alcotest.test_case "one silent fault on every channel" `Quick
            test_single_fault_sweep;
        ] );
      ( "livelock",
        [
          Alcotest.test_case "guard degrades and still verifies" `Quick
            test_livelock_guard;
          Alcotest.test_case "finite storm without guard" `Quick
            test_livelock_guard_off;
        ] );
      ( "plans",
        [
          Alcotest.test_case "to_string/parse round-trip" `Quick
            test_parse_roundtrip;
          Alcotest.test_case "random plans are seed-deterministic" `Quick
            test_random_plans_deterministic;
        ] );
      ( "ablation",
        [
          Alcotest.test_case "fragmentation tax without collapse" `Quick
            test_fragmentation_tax;
        ] );
    ]
