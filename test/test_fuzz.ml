(* Differential fuzzing: randomly generated kernels must behave identically
   on the interpreter and on the simulated circuit under every backend,
   with and without the optimisation passes.

   Iteration counts scale with the FUZZ_ITERS environment variable (default
   1x): `FUZZ_ITERS=10 dune exec test/test_fuzz.exe` runs a 10x-deeper
   sweep, for soak testing outside the tier-1 budget. *)

open Pv_core

let iters base =
  match Sys.getenv_opt "FUZZ_ITERS" with
  | None -> base
  | Some s -> (
      match int_of_string_opt s with
      | Some n when n > 0 -> base * n
      | _ ->
          Printf.eprintf "FUZZ_ITERS=%S ignored (want a positive integer)\n" s;
          base)

let schemes = [ Scheme.plain_lsq; Scheme.fast_lsq; Scheme.prevv 16; Scheme.prevv 64 ]

let check_seed ?(options = Pv_frontend.Build.default_options) seed dis =
  let kernel = Pv_kernels.Generate.kernel seed in
  let init = Pv_kernels.Generate.init_for kernel seed in
  let compiled = Pipeline.compile ~options kernel in
  let result = Pipeline.simulate ~init compiled dis in
  match result.Pipeline.outcome with
  | Pv_dataflow.Sim.Finished _ -> (
      match Pipeline.verify ~init compiled result with
      | [] -> true
      | l ->
          QCheck.Test.fail_reportf "seed %d / %s: %d mismatches" seed
            (Scheme.to_string dis) (List.length l))
  | o ->
      QCheck.Test.fail_reportf "seed %d / %s: %a" seed (Scheme.to_string dis)
        Pv_dataflow.Sim.pp_outcome o

let prop_fuzz_all_backends =
  QCheck.Test.make ~count:(iters 40) ~name:"random kernels verify under every scheme"
    QCheck.(pair (int_range 0 100_000) (int_range 0 3))
    (fun (seed, which) -> check_seed seed (List.nth schemes which))

let prop_fuzz_with_cse =
  QCheck.Test.make ~count:(iters 25) ~name:"random kernels verify with CSE"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      check_seed
        ~options:{ Pv_frontend.Build.default_options with Pv_frontend.Build.cse = true }
        seed (Scheme.prevv 16))

let prop_fuzz_folded =
  QCheck.Test.make ~count:(iters 25) ~name:"random kernels verify after folding"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let kernel =
        Pv_frontend.Optimize.constant_fold (Pv_kernels.Generate.kernel seed)
      in
      let init = Pv_kernels.Generate.init_for kernel seed in
      match Pipeline.check ~init kernel (Scheme.prevv 64) with
      | Ok _ -> true
      | Error e -> QCheck.Test.fail_report e)

(* generated kernels are deterministic in their seed *)
let prop_generator_deterministic =
  QCheck.Test.make ~count:(iters 50) ~name:"generator is seed-deterministic"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      Pv_kernels.Generate.kernel seed = Pv_kernels.Generate.kernel seed)

(* backends agree with each other, not just with the interpreter *)
let prop_backends_agree =
  QCheck.Test.make ~count:(iters 20) ~name:"LSQ and PreVV final memories agree"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let kernel = Pv_kernels.Generate.kernel seed in
      let init = Pv_kernels.Generate.init_for kernel seed in
      let compiled = Pipeline.compile kernel in
      let run dis = (Pipeline.simulate ~init compiled dis).Pipeline.mem in
      run Scheme.fast_lsq = run (Scheme.prevv 16))

(* the event-driven engine is cycle-equivalent to the exhaustive scan on
   arbitrary generated kernels, under every backend, and never does more
   work (see test_sim_equiv.ml for the directed paper-kernel version) *)
let prop_engines_agree =
  QCheck.Test.make ~count:(iters 20)
    ~name:"scan and event engines are cycle-equivalent"
    QCheck.(pair (int_range 0 100_000) (int_range 0 3))
    (fun (seed, which) ->
      let kernel = Pv_kernels.Generate.kernel seed in
      let init = Pv_kernels.Generate.init_for kernel seed in
      let compiled = Pipeline.compile kernel in
      let dis = List.nth schemes which in
      let run engine =
        let sim_cfg = { Pv_dataflow.Sim.default_config with engine } in
        Pipeline.simulate ~sim_cfg ~init compiled dis
      in
      let scan = run Pv_dataflow.Sim.Scan in
      let event = run Pv_dataflow.Sim.Event in
      let sig_of r =
        match r.Pipeline.outcome with
        | Pv_dataflow.Sim.Finished { cycles } -> ("finished", cycles)
        | Pv_dataflow.Sim.Deadlock { at_cycle; _ } -> ("deadlock", at_cycle)
        | Pv_dataflow.Sim.Timeout { at_cycle; _ } -> ("timeout", at_cycle)
      in
      if
        sig_of scan = sig_of event
        && scan.Pipeline.cycles = event.Pipeline.cycles
        && scan.Pipeline.run_stats.Pv_dataflow.Sim.node_fires
           = event.Pipeline.run_stats.Pv_dataflow.Sim.node_fires
        && scan.Pipeline.mem = event.Pipeline.mem
        && event.Pipeline.run_stats.Pv_dataflow.Sim.evals
           <= scan.Pipeline.run_stats.Pv_dataflow.Sim.evals
      then true
      else
        QCheck.Test.fail_reportf
          "seed %d / %s: engines diverge (scan %s@%d, event %s@%d)" seed
          (Scheme.to_string dis)
          (fst (sig_of scan))
          scan.Pipeline.cycles
          (fst (sig_of event))
          event.Pipeline.cycles)

(* resilience: any seed-derived plan of detected (recoverable) faults on
   any generated kernel still finishes with the interpreter's memory — the
   squash/replay machinery absorbs arbitrary transient disturbances *)
let prop_fuzz_recoverable_faults =
  QCheck.Test.make ~count:(iters 20)
    ~name:"random kernels survive random recoverable faults"
    QCheck.(pair (int_range 0 100_000) (int_range 1 1_000))
    (fun (seed, fseed) ->
      let kernel = Pv_kernels.Generate.kernel seed in
      let init = Pv_kernels.Generate.init_for kernel seed in
      let compiled = Pipeline.compile kernel in
      let fault_free = Pipeline.simulate ~init compiled (Scheme.prevv 16) in
      match fault_free.Pipeline.outcome with
      | Pv_dataflow.Sim.Finished { cycles } -> (
          let faults =
            Pv_dataflow.Fault.random_recoverable ~n:4 ~seed:fseed
              ~n_chans:(Pv_dataflow.Graph.n_chans compiled.Pipeline.graph)
              ~max_seq:4 ~horizon:(max 20 (cycles / 2)) ()
          in
          let sim_cfg = { Pv_dataflow.Sim.default_config with faults } in
          let result =
            Pipeline.simulate ~sim_cfg ~init compiled (Scheme.prevv 16)
          in
          match result.Pipeline.outcome with
          | Pv_dataflow.Sim.Finished _ -> (
              match Pipeline.verify ~init compiled result with
              | [] -> true
              | l ->
                  QCheck.Test.fail_reportf
                    "seed %d fault-seed %d under %s: %d mismatches" seed fseed
                    (Pv_dataflow.Fault.to_string faults)
                    (List.length l))
          | o ->
              QCheck.Test.fail_reportf "seed %d fault-seed %d under %s: %a"
                seed fseed
                (Pv_dataflow.Fault.to_string faults)
                Pv_dataflow.Sim.pp_outcome o)
      | o ->
          QCheck.Test.fail_reportf "seed %d fault-free run failed: %a" seed
            Pv_dataflow.Sim.pp_outcome o)

let () =
  Alcotest.run "fuzz"
    [
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_fuzz_all_backends;
          QCheck_alcotest.to_alcotest prop_fuzz_with_cse;
          QCheck_alcotest.to_alcotest prop_fuzz_folded;
          QCheck_alcotest.to_alcotest prop_generator_deterministic;
          QCheck_alcotest.to_alcotest prop_backends_agree;
          QCheck_alcotest.to_alcotest prop_engines_agree;
        ] );
      ( "resilience",
        [ QCheck_alcotest.to_alcotest prop_fuzz_recoverable_faults ] );
    ]
