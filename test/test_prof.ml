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
  [ ("prevv16", Scheme.prevv 16); ("fast-lsq", Scheme.fast_lsq) ]

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
  let prevv16 = Scheme.prevv 16 in
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
  let dis = Scheme.prevv 16 in
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
      let prof, _ = profiled_run kernel (Scheme.prevv 16) in
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

(* The work pin: every paper cell (5 kernels x 6 schemes, default inputs,
   Event engine) with its cycles, evals and the five phase totals, in
   phase order (circuit_sweep, arbiter_scan, pq_validate, lsq_cam,
   mem_service).  The totals equal perfbench paper_grid's traced per-pass
   fields: evals 8,157,896; lsq_cam 1,179,150; pq_validate 603,719;
   arbiter_scan 32,897; mem_service 194,866.  A simulator or backend
   speed-up must move none of them; an entry that moves is a change in the
   work done, not a figure to refresh. *)
let work_pin =
  [
    ("polyn_mult/dynamatic", 2407, 97744, [ 97744; 0; 0; 73388; 9216 ]);
    ("polyn_mult/fast-lsq", 2321, 94706, [ 94706; 0; 0; 41389; 9216 ]);
    ("polyn_mult/prevv16", 2321, 94706, [ 94706; 2297; 34511; 0; 9216 ]);
    ("polyn_mult/prevv64", 2321, 94706, [ 94706; 2297; 34511; 0; 9216 ]);
    ("polyn_mult/oracle", 2321, 94706, [ 94706; 0; 0; 0; 0 ]);
    ("polyn_mult/serial", 27658, 230430, [ 230430; 0; 0; 0; 0 ]);
    ("2mm/dynamatic", 2749, 298582, [ 298582; 0; 0; 73035; 8000 ]);
    ("2mm/fast-lsq", 2021, 270288, [ 270288; 0; 0; 64774; 8000 ]);
    ("2mm/prevv16", 2021, 270288, [ 270288; 1992; 32929; 0; 8000 ]);
    ("2mm/prevv64", 2021, 270288, [ 270288; 1992; 32929; 0; 8000 ]);
    ("2mm/oracle", 2021, 270288, [ 270288; 0; 0; 0; 0 ]);
    ("2mm/serial", 26043, 381702, [ 381702; 0; 0; 0; 0 ]);
    ("3mm/dynamatic", 3503, 358879, [ 358879; 0; 0; 73909; 8748 ]);
    ("3mm/fast-lsq", 2496, 308760, [ 308760; 0; 0; 64173; 8748 ]);
    ("3mm/prevv16", 2208, 362594, [ 362594; 2172; 35601; 0; 8748 ]);
    ("3mm/prevv64", 2208, 362594, [ 362594; 2172; 35601; 0; 8748 ]);
    ("3mm/oracle", 2207, 362587, [ 362587; 0; 0; 0; 0 ]);
    ("3mm/serial", 29910, 493559, [ 493559; 0; 0; 0; 0 ]);
    ("gaussian/dynamatic", 8681, 417379, [ 417379; 0; 0; 169736; 12350 ]);
    ("gaussian/fast-lsq", 4972, 390258, [ 390258; 0; 0; 483998; 12350 ]);
    ("gaussian/prevv16", 6221, 308522, [ 308522; 9853; 122739; 0; 12354 ]);
    ("gaussian/prevv64", 4993, 309223, [ 309223; 4936; 196996; 0; 12356 ]);
    ("gaussian/oracle", 2504, 195664, [ 195664; 0; 0; 0; 0 ]);
    ("gaussian/serial", 51880, 589972, [ 589972; 0; 0; 0; 0 ]);
    ("triangular/dynamatic", 2713, 174781, [ 174781; 0; 0; 82854; 10400 ]);
    ("triangular/fast-lsq", 2619, 169411, [ 169411; 0; 0; 51894; 10400 ]);
    ("triangular/prevv16", 2619, 169411, [ 169411; 2593; 38951; 0; 10400 ]);
    ("triangular/prevv64", 2619, 169411, [ 169411; 2593; 38951; 0; 10400 ]);
    ("triangular/oracle", 2619, 169411, [ 169411; 0; 0; 0; 0 ]);
    ("triangular/serial", 31212, 377046, [ 377046; 0; 0; 0; 0 ]);
  ]

let test_work_pin () =
  let got =
    List.concat_map
      (fun kernel ->
        let compiled = Pipeline.compile kernel in
        List.map
          (fun (module M : Scheme.S) ->
            let prof = Prof.create () in
            let r = Pipeline.simulate ~prof compiled M.config in
            ( kernel.Pv_kernels.Ast.name ^ "/" ^ M.name,
              ( r.Pipeline.cycles,
                r.Pipeline.run_stats.Sim.evals,
                Array.to_list (Prof.phase_totals prof) ) ))
          (Scheme.all ()))
      kernels
  in
  Alcotest.(check (list (pair string (triple int int (list int)))))
    "cycles, evals and phase totals per cell"
    (List.map (fun (l, c, e, ph) -> (l, (c, e, ph))) work_pin)
    got

(* The LSQ work pin of perfbench squash_storm: its eight fixed kernels at
   the workload's sizes under both LSQ schemes (default inputs, Event
   engine), each with its cycles, evals, [lsq_cam] and [mem_service]
   totals and the forwarded, stall_order, stall_bw and stall_full
   counters.  Like the paper-cell pin, an entry that moves is a change in
   the work the LSQ does, not a figure to refresh. *)
let storm_kernels () =
  let module D = Pv_kernels.Defs in
  [
    D.matvec ~n:48 ();
    D.fir_smooth ~n:600 ();
    D.triangular_tight ~n:40 ();
    D.histogram ~n:1024 ();
    D.spmv_like ~n:2048 ();
    D.running_max ~n:4096 ();
    D.stencil1d ~n:256 ();
    D.cond_update ~n:2048 ();
  ]

let storm_pin =
  [
    ("matvec/fast-lsq", [ 11347; 233563; 4311557; 9216; 2256; 319711; 0; 8884 ]);
    ("matvec/dynamatic", [ 11360; 233747; 4312000; 9216; 2256; 283290; 0; 8897 ]);
    ("fir_smooth/fast-lsq", [ 5395; 60850; 820746; 2392; 597; 58546; 9; 7 ]);
    ("fir_smooth/dynamatic", [ 5411; 61039; 819984; 2392; 597; 58496; 10; 39 ]);
    ("triangular_tight/fast-lsq", [ 11879; 770631; 1074360; 45920; 3944; 65915; 0; 368 ]);
    ("triangular_tight/dynamatic", [ 12223; 792645; 626952; 45920; 1044; 9387; 0; 711 ]);
    ("histogram/fast-lsq", [ 6161; 183413; 82678; 6144; 0; 96899; 1023; 4062 ]);
    ("histogram/dynamatic", [ 6176; 183460; 82686; 6144; 0; 51179; 1023; 4077 ]);
    ("spmv_like/fast-lsq", [ 2069; 102800; 44923; 14336; 0; 0; 0; 0 ]);
    ("spmv_like/dynamatic", [ 2143; 106049; 65196; 14336; 0; 0; 0; 63 ]);
    ("running_max/fast-lsq", [ 8209; 309973; 3053349; 12288; 4094; 183306; 0; 4050 ]);
    ("running_max/dynamatic", [ 8221; 310429; 3054659; 12288; 4094; 134622; 0; 4062 ]);
    ("stencil1d/fast-lsq", [ 2552; 220077; 232415; 6096; 0; 0; 8576; 496 ]);
    ("stencil1d/dynamatic", [ 3797; 221616; 92840; 6096; 0; 0; 1281; 1735 ]);
    ("cond_update/fast-lsq", [ 2073; 164345; 28408; 7303; 0; 0; 0; 0 ]);
    ("cond_update/dynamatic", [ 2077; 164359; 32567; 7303; 0; 0; 0; 0 ]);
  ]

let test_storm_work_pin () =
  let got =
    List.concat_map
      (fun kernel ->
        let compiled = Pipeline.compile kernel in
        List.map
          (fun (sname, dis) ->
            let prof = Prof.create () in
            let r = Pipeline.simulate ~prof compiled dis in
            let ph = Prof.phase_totals prof and ms = r.Pipeline.mem_stats in
            ( kernel.Pv_kernels.Ast.name ^ "/" ^ sname,
              [
                r.Pipeline.cycles;
                r.Pipeline.run_stats.Sim.evals;
                ph.(Prof.phase_lsq_cam);
                ph.(Prof.phase_mem_service);
                ms.Memif.forwarded;
                ms.Memif.stall_order;
                ms.Memif.stall_bw;
                ms.Memif.stall_full;
              ] ))
          [ ("fast-lsq", Scheme.fast_lsq); ("dynamatic", Scheme.plain_lsq) ])
      (storm_kernels ())
  in
  Alcotest.(check (list (pair string (list int))))
    "cycles, evals, lsq_cam, mem_service, forwarded, stall_order, stall_bw, \
     stall_full per cell"
    storm_pin got

(* The area-flow work pin: for each bundled kernel, the minor words and the
   words allocated straight into the major heap by [Pipeline.compile], then
   by its nine area reports (perfbench area_sweep's configurations: plain
   and fast LSQ, PreVV at depths 1 to 64).  A change that moves an entry
   lists it, before and after, in CHANGES.md.  Allocation depends on the
   compiler, so the pin holds under the OCaml release it was recorded with
   and is skipped, with a message, under any other. *)
let area_pin_ocaml = "5.1.1"

let area_pin =
  [
    ("polyn_mult", (4522, 0), (2748, 0));
    ("2mm", (11678, 0), (3924, 0));
    ("3mm", (16890, 259), (5100, 0));
    ("gaussian", (7323, 0), (2424, 0));
    ("triangular", (6028, 0), (2748, 0));
    ("histogram", (6231, 0), (3618, 0));
    ("fn_dependent", (8041, 0), (3618, 0));
    ("cond_update", (6567, 0), (2748, 0));
    ("spmv_like", (4798, 0), (2748, 0));
    ("triangular_tight", (6037, 0), (2748, 0));
    ("fir_smooth", (4698, 0), (2424, 0));
    ("matvec", (4527, 0), (2748, 0));
    ("stencil1d", (7784, 0), (3600, 0));
    ("bicg", (8320, 0), (3924, 0));
    ("running_max", (3715, 0), (2748, 0));
  ]

(* minor words and direct major words of [f ()]; [Gc.counters]'s minor
   count is not used, it reads an eighth of [Gc.minor_words] in 5.1 *)
let words f =
  Gc.minor ();
  let _, pr0, ma0 = Gc.counters () in
  let mi0 = Gc.minor_words () in
  let r = f () in
  let mi1 = Gc.minor_words () in
  let _, pr1, ma1 = Gc.counters () in
  ( Sys.opaque_identity r,
    int_of_float (mi1 -. mi0),
    int_of_float (ma1 -. ma0 -. (pr1 -. pr0)) )

let test_area_work_pin () =
  if Sys.ocaml_version <> area_pin_ocaml then begin
    Printf.printf "area work pin recorded under OCaml %s, running %s: skipped\n"
      area_pin_ocaml Sys.ocaml_version;
    Alcotest.skip ()
  end;
  let configs =
    List.map Scheme.elaboration_of
      ([ Scheme.plain_lsq; Scheme.fast_lsq ]
      @ List.map Scheme.prevv [ 1; 2; 4; 8; 16; 32; 64 ])
  in
  let got =
    List.map
      (fun k ->
        let c, minor, major = words (fun () -> Pipeline.compile k) in
        let pm = c.Pipeline.info.Pv_frontend.Depend.portmap in
        let (), r_minor, r_major =
          words (fun () ->
              List.iter
                (fun dis ->
                  ignore
                    (Sys.opaque_identity
                       (Pv_resource.Report.of_circuit c.Pipeline.graph pm dis)))
                configs)
        in
        (k.Pv_kernels.Ast.name, ((minor, major), (r_minor, r_major))))
      (Pv_kernels.Defs.all ())
  in
  Alcotest.(check (list (pair string (pair (pair int int) (pair int int)))))
    "compile and nine reports: (minor, direct major) words"
    (List.map (fun (name, c, r) -> (name, (c, r))) area_pin)
    got

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
          Alcotest.test_case "work pin: 30 paper cells" `Quick test_work_pin;
          Alcotest.test_case "work pin: area flow of 15 bundled kernels" `Quick
            test_area_work_pin;
          Alcotest.test_case "work pin: 16 squash_storm LSQ cells" `Quick
            test_storm_work_pin;
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
