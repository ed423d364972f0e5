(* Attribution invariants of the cycle profiler (DESIGN.md §20).

   The profiler's claim is exactness, not sampling: every unit of
   simulated work lands in one phase bucket, so the buckets obey closed
   identities against independently maintained counters —
   [circuit_sweep] equals the simulator's eval count, [mem_service]
   equals the backend's loads + stores, and the phase totals sum to
   {!Prof.total} on every kernel x backend cell.  The per-channel held
   counts equal a by-hand count of occupied registers after every step,
   squash purges and injected drops included.  On top of that the
   reports must be deterministic across worker counts and the folded
   emitter must round-trip through its own parser with the counts
   conserved. *)

open Pv_core
module Sim = Pv_dataflow.Sim
module Memif = Pv_dataflow.Memif
module Prof = Pv_obs.Prof

let kernels = Pv_kernels.Defs.paper_benchmarks ()

let backends =
  [ ("prevv16", Pipeline.prevv 16); ("fast-lsq", Pipeline.fast_lsq) ]

let profiled_run ?(engine = Sim.Event) kernel dis =
  let compiled = Pipeline.compile kernel in
  let prof = Prof.create () in
  let sim_cfg = { Sim.default_config with Sim.engine } in
  let r = Pipeline.simulate ~sim_cfg ~prof compiled dis in
  (prof, r)

(* every paper kernel x {prevv, fast-lsq}: the closed identities *)
let test_attribution_invariants () =
  List.iter
    (fun kernel ->
      List.iter
        (fun (bname, dis) ->
          let name = kernel.Pv_kernels.Ast.name ^ "/" ^ bname in
          let prof, r = profiled_run kernel dis in
          (match r.Pipeline.outcome with
          | Sim.Finished _ -> ()
          | o ->
              Alcotest.failf "%s: did not finish: %s" name
                (Format.asprintf "%a" Sim.pp_outcome o));
          let phases = Prof.phase_totals prof in
          Alcotest.(check int)
            (name ^ ": phase budget sums to total")
            (Prof.total prof)
            (Array.fold_left ( + ) 0 phases);
          Alcotest.(check int)
            (name ^ ": circuit_sweep = simulator evals")
            r.Pipeline.run_stats.Sim.evals
            phases.(Prof.phase_circuit_sweep);
          let ms = r.Pipeline.mem_stats in
          Alcotest.(check int)
            (name ^ ": mem_service = loads + stores")
            (ms.Memif.loads + ms.Memif.stores)
            phases.(Prof.phase_mem_service);
          (* only the selected backend's phases show up; dispatch on the
             registry name, never the variant (scheme encapsulation) *)
          match bname with
          | "prevv16" ->
              Alcotest.(check int) (name ^ ": no LSQ CAM work") 0
                phases.(Prof.phase_lsq_cam);
              Alcotest.(check bool)
                (name ^ ": PQ validation attributed")
                true
                (phases.(Prof.phase_pq_validate) > 0)
          | "fast-lsq" ->
              Alcotest.(check int) (name ^ ": no arbiter work") 0
                phases.(Prof.phase_arbiter_scan);
              Alcotest.(check int) (name ^ ": no PQ validation") 0
                phases.(Prof.phase_pq_validate);
              Alcotest.(check bool)
                (name ^ ": CAM work attributed")
                true
                (phases.(Prof.phase_lsq_cam) > 0)
          | b -> Alcotest.failf "unexpected backend %s" b)
        backends)
    kernels

let hot_sig prof =
  List.map
    (fun h ->
      (h.Prof.nid, h.Prof.opcode, h.Prof.label, h.Prof.evals,
       Array.to_list h.Prof.stalls))
    (Prof.hot_nodes prof ~top:10)

(* Held counts are exact: a profiled run's [chan_held] equals the count
   taken by stepping an unprofiled twin by hand for the same number of
   cycles and tallying [Sim.chan_occupied] on every channel after each
   step.  gaussian streams, matvec squashes (purges clear registers
   outside the commit), and histogram runs a seeded plan of a silent drop
   (another register cleared outside the commit, ending in a deadlock)
   and a stall; each under both engines. *)
let test_held_counts_exact () =
  let prevv16 = Pipeline.prevv 16 in
  let drop_and_stall compiled =
    let nc = Pv_dataflow.Graph.n_chans compiled.Pipeline.graph in
    (* seed 11 drops a token the run survives into a diagnosed deadlock;
       on seeds whose drop mis-pairs the streams, PreVV refuses the op and
       the run also ends in a diagnosed deadlock *)
    let rs = Random.State.make [| 11 |] in
    let chan () = Random.State.int rs nc in
    [
      { Pv_dataflow.Fault.at_cycle = 30; action = Drop { chan = chan () } };
      { at_cycle = 60; action = Stall { chan = chan (); cycles = 40 } };
    ]
  in
  List.iter
    (fun (kernel, plan) ->
      let compiled = Pipeline.compile kernel in
      let faults = plan compiled in
      List.iter
        (fun engine ->
          let name =
            kernel.Pv_kernels.Ast.name ^ "/" ^ Sim.string_of_engine engine
          in
          let cfg = { Sim.default_config with Sim.engine; faults } in
          let prof = Prof.create () in
          let r = Pipeline.simulate ~sim_cfg:cfg ~prof compiled prevv16 in
          let mem =
            Pv_memory.Layout.initial_memory compiled.Pipeline.layout kernel
              ~init:(Pv_kernels.Workload.default_init kernel)
          in
          let sim =
            Sim.create ~cfg compiled.Pipeline.graph
              (Pipeline.backend_of compiled mem prevv16)
          in
          let held =
            Array.make (Pv_dataflow.Graph.n_chans compiled.Pipeline.graph) 0
          in
          for _ = 1 to r.Pipeline.run_stats.Sim.cycles do
            Sim.step sim;
            Array.iteri
              (fun cid n ->
                if Sim.chan_occupied sim cid then held.(cid) <- n + 1)
              held
          done;
          Alcotest.(check (array int)) (name ^ ": held counts") held
            (Prof.chan_held prof);
          if kernel.Pv_kernels.Ast.name = "matvec" then
            Alcotest.(check bool) (name ^ ": squashes") true
              (r.Pipeline.mem_stats.Memif.squashes > 0);
          if faults <> [] then begin
            Alcotest.(check bool)
              (name ^ ": the drop fired") true
              (List.exists
                 (fun ap ->
                   match ap.Pv_dataflow.Fault.ap_event.action with
                   | Drop _ -> ap.ap_fired_at <> None
                   | _ -> false)
                 (Sim.fault_log sim));
            Alcotest.(check string)
              (name ^ ": ends in a deadlock") "deadlock"
              (Sim.outcome_name r.Pipeline.outcome)
          end)
        [ Sim.Scan; Sim.Event ])
    [
      (Pv_kernels.Defs.gaussian (), fun _ -> []);
      (Pv_kernels.Defs.matvec (), fun _ -> []);
      (Pv_kernels.Defs.histogram (), drop_and_stall);
    ]

(* the whole report — hot-node table, folded stacks, phase budget — is
   identical whether the profiled run shares the process with 3 other
   concurrent profiled runs or runs alone: each run owns its profiler *)
let test_deterministic_across_jobs () =
  let kernel = Pv_kernels.Defs.histogram () in
  let dis = Pipeline.prevv 16 in
  let run () =
    let prof, _ = profiled_run kernel dis in
    ( hot_sig prof,
      Prof.folded prof ~kernel:"histogram",
      Array.to_list (Prof.phase_totals prof) )
  in
  let serial = run () in
  let parallel = Parallel.map ~jobs:4 (fun () -> run ()) [ (); (); (); () ] in
  List.iteri
    (fun i r ->
      Alcotest.(check bool)
        (Printf.sprintf "profile %d of jobs=4 equals the serial profile" i)
        true (r = serial))
    parallel

(* folded output is conservative: it parses back, the kernel frame leads
   every stack, and the counts sum to the attributed total *)
let test_folded_roundtrip () =
  List.iter
    (fun kernel ->
      let name = kernel.Pv_kernels.Ast.name in
      let prof, _ = profiled_run kernel (Pipeline.prevv 16) in
      let s = Prof.folded prof ~kernel:name in
      match Prof.parse_folded s with
      | Error e -> Alcotest.failf "%s: folded output did not parse: %s" name e
      | Ok rows ->
          Alcotest.(check bool) (name ^ ": rows non-empty") true (rows <> []);
          Alcotest.(check int)
            (name ^ ": folded counts sum to total")
            (Prof.total prof)
            (List.fold_left (fun acc (_, n) -> acc + n) 0 rows);
          List.iter
            (fun (frames, n) ->
              Alcotest.(check bool) (name ^ ": positive count") true (n > 0);
              match frames with
              | k :: rest when List.length rest = 1 || List.length rest = 2 ->
                  Alcotest.(check string) (name ^ ": kernel frame leads") name k
              | _ ->
                  Alcotest.failf "%s: stack has %d frames" name
                    (List.length frames))
            rows)
    kernels

(* junk folded lines are an [Error], never a crash or a silent zero *)
let test_folded_rejects_junk () =
  List.iter
    (fun s ->
      match Prof.parse_folded s with
      | Ok _ -> Alcotest.failf "accepted ill-formed folded line %S" s
      | Error _ -> ())
    [ "no-count-here"; "k;phase notanumber"; " 5" ]

(* the disabled profiler records nothing through any entry point *)
let test_null_records_nothing () =
  let p = Prof.null in
  Alcotest.(check bool) "disabled" false (Prof.enabled p);
  Prof.node_eval p 3;
  Prof.add p ~phase:Prof.phase_mem_service 7;
  Prof.stall p 3 ~reason:Prof.reason_starved;
  Alcotest.(check int) "total stays zero" 0 (Prof.total p);
  Alcotest.(check bool) "no hot nodes" true (Prof.hot_nodes p ~top:5 = [])

let () =
  Alcotest.run "prof"
    [
      ( "invariants",
        [
          Alcotest.test_case "phase budget identities, 5 kernels x 2 backends"
            `Quick test_attribution_invariants;
          Alcotest.test_case "held counts match a by-hand count" `Quick
            test_held_counts_exact;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "jobs=1 and jobs=4 report identically" `Quick
            test_deterministic_across_jobs;
        ] );
      ( "folded",
        [
          Alcotest.test_case "round-trips through the parser" `Quick
            test_folded_roundtrip;
          Alcotest.test_case "rejects junk" `Quick test_folded_rejects_junk;
        ] );
      ( "null",
        [
          Alcotest.test_case "records nothing" `Quick test_null_records_nothing;
        ] );
    ]
