(** Top-level flow: kernel → analysis → circuit → simulation → check.

    This is the API the examples, CLI and benchmarks use.  It mirrors the
    paper's toolchain: Dynamatic elaboration (here {!Pv_frontend.Build}),
    backend selection through the {!Scheme} registry (LSQ baselines,
    PreVV, oracle/serial reference bounds), ModelSim-vs-C++ checking
    (here simulation vs the reference interpreter). *)

type disambiguation = Scheme.disambiguation

type compiled = {
  kernel : Pv_kernels.Ast.kernel;
  info : Pv_frontend.Depend.info;
  layout : Pv_memory.Layout.t;
  trace : Pv_frontend.Trace.t;
  graph : Pv_dataflow.Graph.t;
}

let compile ?(options = Pv_frontend.Build.default_options)
    (kernel : Pv_kernels.Ast.kernel) : compiled =
  let info =
    Pv_frontend.Depend.analyse ~cse:options.Pv_frontend.Build.cse kernel
  in
  let layout = Pv_memory.Layout.of_kernel kernel in
  let trace = Pv_frontend.Trace.of_kernel kernel info in
  let graph = Pv_frontend.Build.circuit ~options kernel info layout trace in
  { kernel; info; layout; trace; graph }

let seeded_faults (compiled : compiled) ~seed : Pv_dataflow.Fault.plan =
  let instances = Pv_frontend.Trace.length compiled.trace in
  Pv_dataflow.Fault.random_recoverable ~seed
    ~n_chans:(Pv_dataflow.Graph.n_chans compiled.graph)
    ~max_seq:instances
    ~horizon:(100 + (4 * instances))
    ()

type result = {
  outcome : Pv_dataflow.Sim.outcome;
  cycles : int;
  mem : int array;  (** final flat memory *)
  mem_stats : Pv_dataflow.Memif.stats;
  run_stats : Pv_dataflow.Sim.run_stats;
}

let backend_full ?trace ?prof (compiled : compiled) mem dis : Scheme.instance =
  let env =
    Scheme.make_env ?trace ?prof ~kernel:compiled.kernel ~info:compiled.info
      ~schedule:compiled.trace ~layout:compiled.layout mem
  in
  let (module M : Scheme.S) = Scheme.of_disambiguation dis in
  M.make env

let backend_of compiled mem dis =
  (backend_full compiled mem dis).Scheme.memif

(* Fill [m] from the engine-invariant result of a run.  Everything here is
   identical across Scan/Event (enforced by test_sim_equiv for the stats,
   by construction for the outcome) and across worker counts (each run owns
   its state), which is what makes metric snapshots deterministic.  The
   engine-dependent [run_stats.evals] is deliberately NOT a metric.
   Scheme-specific counters are appended by the instance's own
   [record_metrics] hook under its [scheme.<name>.*] namespace. *)
let record_metrics m (r : result) =
  let module M = Pv_obs.Metrics in
  let module MS = Pv_dataflow.Memif in
  M.add m "sim.cycles" r.cycles;
  M.add m "sim.node_fires" (Array.fold_left ( + ) 0 r.run_stats.node_fires);
  M.add m "sim.gen_instances" r.run_stats.gen_instances;
  (match r.outcome with
  | Pv_dataflow.Sim.Finished _ -> M.incr m "sim.finished"
  | Pv_dataflow.Sim.Deadlock _ -> M.incr m "sim.deadlock"
  | Pv_dataflow.Sim.Timeout _ -> M.incr m "sim.timeout");
  let s = r.mem_stats in
  M.add m "backend.loads" s.MS.loads;
  M.add m "backend.stores" s.MS.stores;
  M.add m "backend.squashes" s.MS.squashes;
  M.add m "backend.replayed_ops" s.MS.replayed_ops;
  M.add m "backend.forwarded" s.MS.forwarded;
  M.add m "backend.fake_tokens" s.MS.fake_tokens;
  M.add m "backend.faults" s.MS.faults;
  M.add m "backend.degraded" s.MS.degraded;
  M.add m "backend.stall_full" s.MS.stall_full;
  M.add m "backend.stall_alloc" s.MS.stall_alloc;
  M.add m "backend.stall_order" s.MS.stall_order;
  M.add m "backend.stall_bw" s.MS.stall_bw;
  M.set_gauge_max m "backend.pq_high_water" s.MS.max_occupancy

let simulate ?(sim_cfg = Pv_dataflow.Sim.default_config)
    ?(init : (string * int array) list option)
    ?(obs_trace = Pv_obs.Trace.null) ?(prof = Pv_obs.Prof.null) ?metrics
    (compiled : compiled) (dis : disambiguation) : result =
  let init =
    match init with
    | Some i -> i
    | None -> Pv_kernels.Workload.default_init compiled.kernel
  in
  let mem = Pv_memory.Layout.initial_memory compiled.layout compiled.kernel ~init in
  let inst = backend_full ~trace:obs_trace ~prof compiled mem dis in
  let backend = inst.Scheme.memif in
  let outcome, run_stats =
    Pv_dataflow.Sim.run ~cfg:sim_cfg ~trace:obs_trace ~prof compiled.graph
      backend
  in
  let cycles =
    match outcome with
    | Pv_dataflow.Sim.Finished { cycles } -> cycles
    | Pv_dataflow.Sim.Deadlock { at_cycle; _ }
    | Pv_dataflow.Sim.Timeout { at_cycle; _ } ->
        at_cycle
  in
  let result =
    {
      outcome;
      cycles;
      mem;
      mem_stats = backend.Pv_dataflow.Memif.stats ();
      run_stats;
    }
  in
  (match metrics with
  | Some m ->
      record_metrics m result;
      (* trace truncation is an observability defect worth surfacing even
         when nobody reads the Chrome export *)
      if Pv_obs.Trace.enabled obs_trace then
        Pv_obs.Metrics.add m "trace.dropped_events"
          (Pv_obs.Trace.dropped obs_trace);
      inst.Scheme.record_metrics m
  | None -> ());
  result

(** The diagnosis attached to a [Deadlock]/[Timeout] outcome, if any. *)
let post_mortem (r : result) : Pv_dataflow.Sim.post_mortem option =
  match r.outcome with
  | Pv_dataflow.Sim.Deadlock { post_mortem; _ }
  | Pv_dataflow.Sim.Timeout { post_mortem; _ } ->
      Some post_mortem
  | Pv_dataflow.Sim.Finished _ -> None

(** Check a simulation result against the reference interpreter on the
    same inputs; returns mismatches as (array, index, expected, got). *)
let verify ?(init : (string * int array) list option) (compiled : compiled)
    (result : result) : (string * int * int * int) list =
  let init =
    match init with
    | Some i -> i
    | None -> Pv_kernels.Workload.default_init compiled.kernel
  in
  let golden = Pv_kernels.Interp.run compiled.kernel ~init in
  Pv_memory.Layout.diff_against compiled.layout compiled.kernel result.mem golden

(** One-call convenience used everywhere in tests: simulate and verify;
    returns an error message on any failure. *)
let check ?sim_cfg ?init kernel dis : (result, string) Stdlib.result =
  let compiled = compile kernel in
  let result = simulate ?sim_cfg ?init compiled dis in
  match result.outcome with
  | Pv_dataflow.Sim.Finished _ -> (
      match verify ?init compiled result with
      | [] -> Ok result
      | (a, ix, want, got) :: _ as l ->
          Error
            (Printf.sprintf "%s/%s: %d mismatches, first %s[%d]: want %d got %d"
               kernel.Pv_kernels.Ast.name (Scheme.to_string dis) (List.length l) a ix want
               got))
  | o ->
      Error
        (Format.asprintf "%s/%s: %a@\n%a" kernel.Pv_kernels.Ast.name
           (Scheme.to_string dis) Pv_dataflow.Sim.pp_outcome o
           (Format.pp_print_option Pv_dataflow.Sim.pp_post_mortem)
           (post_mortem result))
