(* Engine equivalence: the event-driven scheduler must be cycle-equivalent
   to the exhaustive per-cycle scan — identical outcome, cycle count,
   per-node fire counts, generator traffic, backend statistics and final
   memory — while performing strictly fewer node evaluations.  Checked on
   every paper kernel under every registered backend (the scheme registry,
   so the oracle / serial bound backends ride along automatically), on a
   few stress kernels, and on fault-injected runs that exercise the squash
   wake-alls and the timed stall wakes. *)

open Pv_core
module Sim = Pv_dataflow.Sim
module Fault = Pv_dataflow.Fault

(* every registered scheme, registry order — not a hard-coded list, so a
   newly registered backend is covered without touching this file *)
let schemes =
  List.map (fun (module M : Scheme.S) -> (M.name, M.config)) (Scheme.all ())

let run ?(faults = []) engine compiled dis =
  let sim_cfg = { Sim.default_config with Sim.engine; faults } in
  Pipeline.simulate ~sim_cfg compiled dis

let outcome_sig = function
  | Sim.Finished { cycles } -> ("finished", cycles)
  | Sim.Deadlock { at_cycle; _ } -> ("deadlock", at_cycle)
  | Sim.Timeout { at_cycle; _ } -> ("timeout", at_cycle)

(* Run both engines and assert bit-identical observable behaviour; returns
   (scan evals, event evals) for the caller's efficiency assertion. *)
let check_equiv ?faults name compiled dis =
  let scan = run ?faults Sim.Scan compiled dis in
  let event = run ?faults Sim.Event compiled dis in
  Alcotest.(check (pair string int))
    (name ^ ": outcome")
    (outcome_sig scan.Pipeline.outcome)
    (outcome_sig event.Pipeline.outcome);
  Alcotest.(check int) (name ^ ": cycles") scan.Pipeline.cycles
    event.Pipeline.cycles;
  Alcotest.(check (array int))
    (name ^ ": per-node fire counts")
    scan.Pipeline.run_stats.Sim.node_fires
    event.Pipeline.run_stats.Sim.node_fires;
  Alcotest.(check int)
    (name ^ ": generator instances")
    scan.Pipeline.run_stats.Sim.gen_instances
    event.Pipeline.run_stats.Sim.gen_instances;
  Alcotest.(check (array int))
    (name ^ ": final memory")
    scan.Pipeline.mem event.Pipeline.mem;
  Alcotest.(check bool)
    (name ^ ": backend statistics")
    true
    (scan.Pipeline.mem_stats = event.Pipeline.mem_stats);
  (scan.Pipeline.run_stats.Sim.evals, event.Pipeline.run_stats.Sim.evals)

let test_kernel kernel () =
  let compiled = Pipeline.compile kernel in
  List.iter
    (fun (sname, dis) ->
      let name = kernel.Pv_kernels.Ast.name ^ "/" ^ sname in
      let scan_evals, event_evals = check_equiv name compiled dis in
      if event_evals >= scan_evals then
        Alcotest.failf "%s: event engine not cheaper (%d >= %d evals)" name
          event_evals scan_evals)
    schemes

(* Fault plans drive the conservative wake paths: the wake-all on any fired
   fault, the timed wake at a stall expiry, and the wake-all per squash. *)
let test_faulted kernel () =
  let compiled = Pipeline.compile kernel in
  let n_chans = Pv_dataflow.Graph.n_chans compiled.Pipeline.graph in
  let base = Pipeline.simulate compiled (Scheme.prevv 16) in
  let horizon =
    match base.Pipeline.outcome with
    | Sim.Finished { cycles } -> max 20 (cycles / 2)
    | _ -> Alcotest.fail "fault-free run did not finish"
  in
  (* a hand-built plan hitting every sim-level fault kind... *)
  let manual =
    [
      { Fault.at_cycle = 5; action = Fault.Stall { chan = 1; cycles = 9 } };
      { Fault.at_cycle = 11; action = Fault.Drop { chan = 2 } };
      { Fault.at_cycle = 17; action = Fault.Flip { chan = 3; mask = 0 } };
      { Fault.at_cycle = 23; action = Fault.Drop_replay { chan = 4 } };
      { Fault.at_cycle = 29; action = Fault.Flip_replay { chan = 5; mask = 1 } };
    ]
  in
  (* ...applied under every registered scheme (the bound backends refuse
     replay injection — the *-replay actions must then be no-ops for them),
     plus seeded recoverable plans (stalls, drops, flips, squashes) *)
  List.iter
    (fun (sname, dis) ->
      let tag = kernel.Pv_kernels.Ast.name ^ "/" ^ sname in
      ignore (check_equiv (tag ^ "/manual-faults") compiled ~faults:manual dis);
      for fseed = 1 to 4 do
        let faults =
          Fault.random_recoverable ~n:4 ~seed:fseed ~n_chans ~max_seq:4
            ~horizon ()
        in
        ignore
          (check_equiv
             (Printf.sprintf "%s/faults-seed%d" tag fseed)
             compiled ~faults dis)
      done)
    schemes

(* A latency-2 multiplier filled behind a slow consumer.  The Load holds
   one request in flight for four cycles (the direct backend serves one
   load per port at a time), so the pipe's output register stays full,
   its three-record ring fills, and the next operand pair waits on its
   inputs.  Each time the Load takes a product, the pipe drains a record
   in that same evaluation, after its accept step was already refused for
   a full ring; the event engine must keep the pipe awake so that it
   accepts the waiting pair next cycle, as the scan does.  An idle chain
   that never fires keeps the event engine in its sparse mode, where the
   wake set decides what runs. *)
let pipe_behind_slow_consumer () =
  let module G = Pv_dataflow.Graph in
  let module T = Pv_dataflow.Types in
  let b = G.create () in
  let gen_of rows =
    T.Gen (Literal_gen.spec ~arity:2 (Array.concat (Array.to_list rows)))
  in
  let gen = G.add b (gen_of (Array.init 24 (fun s -> [| s; 3 |]))) in
  let mul = G.add b (T.Binop T.Mul) in
  let load = G.add b (T.Load { port = 0 }) in
  let sink = G.add b T.Sink in
  G.connect b (gen, 0) (mul, 0);
  G.connect b (gen, 1) (mul, 1);
  G.connect b (mul, 0) (load, 0);
  G.connect b (load, 0) (sink, 0);
  let idle = G.add b (gen_of [||]) in
  G.connect b (idle, 1) (G.add b T.Sink, 0);
  let tail =
    List.fold_left
      (fun prev _ ->
        let u = G.add b (T.Unop T.Neg) in
        G.connect b (prev, 0) (u, 0);
        u)
      idle (List.init 16 Fun.id)
  in
  G.connect b (tail, 0) (G.add b T.Sink, 0);
  G.finalize b

let test_pipe_accept_after_drain () =
  let g = pipe_behind_slow_consumer () in
  let sim engine =
    let mem = Array.init 128 (fun i -> 1000 + i) in
    Sim.create
      ~cfg:{ Sim.default_config with Sim.engine }
      g
      (Pv_dataflow.Memif.direct ~latency:4 mem)
  in
  let scan = sim Sim.Scan and event = sim Sim.Event in
  let fires t = Array.init (Pv_dataflow.Graph.n_nodes g) (Sim.fire_count t) in
  let rec go cycle =
    if Sim.finished scan then cycle
    else if cycle > 1000 then Alcotest.fail "scan run did not finish"
    else begin
      Sim.step scan;
      Sim.step event;
      Alcotest.(check (array int))
        (Printf.sprintf "per-node fires after cycle %d" cycle)
        (fires scan) (fires event);
      go (cycle + 1)
    end
  in
  let cycles = go 0 in
  Alcotest.(check bool) "event run finished with the scan" true
    (Sim.finished event);
  (* premise: the consumer is slow enough to back the pipe up *)
  Alcotest.(check bool)
    (Printf.sprintf "24 loads take more than 4 cycles each (%d cycles)" cycles)
    true (cycles > 24 * 4);
  Alcotest.(check bool) "event engine evaluates fewer nodes" true
    (Sim.evals event < Sim.evals scan)

let kernel_case k =
  Alcotest.test_case k.Pv_kernels.Ast.name `Quick (test_kernel k)

let () =
  let paper = Pv_kernels.Defs.paper_benchmarks () in
  let stress =
    [
      Pv_kernels.Defs.cond_update ();
      Pv_kernels.Defs.triangular_tight ();
      Pv_kernels.Defs.gaussian ();
      Pv_kernels.Defs.running_max ();
    ]
  in
  Alcotest.run "sim_equiv"
    [
      ("paper kernels x registered backends", List.map kernel_case paper);
      ("stress kernels", List.map kernel_case stress);
      ( "hand-built graphs",
        [
          Alcotest.test_case "pipe accepts the cycle after a full drain"
            `Quick test_pipe_accept_after_drain;
        ] );
      ( "under injected faults",
        [
          Alcotest.test_case "histogram" `Quick
            (test_faulted (Pv_kernels.Defs.histogram ()));
          Alcotest.test_case "running_max" `Quick
            (test_faulted (Pv_kernels.Defs.running_max ()));
        ] );
    ]
