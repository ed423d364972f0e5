(* Performance-contract tests for the data-oriented simulator core:
   a steady-state cycle of the event engine performs zero minor-heap
   allocation, the squash purge path allocates nothing, the event engine
   never does more node evaluations than the scan, and the timer wheel
   fires equal-expiry wakes in FIFO order.

   Allocation is asserted as a slope, not an absolute: each measurement
   window carries a small constant overhead (the float boxes of the
   [Gc.minor_words] probes themselves), so two windows of different
   lengths are compared — any per-cycle allocation would make the longer
   window's delta strictly larger. *)

open Pv_core
module Sim = Pv_dataflow.Sim
module Memif = Pv_dataflow.Memif
module Wheel = Pv_dataflow.Wheel

let kernels = Pv_kernels.Defs.paper_benchmarks ()

let schemes =
  List.map (fun (module M : Scheme.S) -> (M.name, M.config)) (Scheme.all ())

(* A simulation of [kernel] under [engine] over the allocation-free direct
   backend, so the measurement isolates the simulator core.  [prof]
   defaults to the disabled profiler — the configuration whose zero-alloc
   contract test (a) asserts. *)
let direct_sim ?prof engine kernel =
  let compiled = Pipeline.compile kernel in
  let mem =
    Pv_memory.Layout.initial_memory compiled.Pipeline.layout
      compiled.Pipeline.kernel ~init:[]
  in
  let backend = Memif.direct ~latency:2 mem in
  Sim.create ?prof
    ~cfg:{ Sim.default_config with Sim.engine }
    compiled.Pipeline.graph backend

let minor_delta f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let steps sim n =
  for _ = 1 to n do
    Sim.step sim
  done

(* A simulation of [kernel] under [engine] over the real backend of
   [dis] ([Pipeline.backend_full]), on the kernel's default inputs rather
   than zeros, so the oracle's wait and forward paths, PreVV's gate and
   the LSQ's forwarding see real conflicts. *)
let scheme_sim engine kernel dis =
  let compiled = Pipeline.compile kernel in
  let mem =
    Pv_memory.Layout.initial_memory compiled.Pipeline.layout kernel
      ~init:(Pv_kernels.Workload.default_init kernel)
  in
  Sim.create
    ~cfg:{ Sim.default_config with Sim.engine }
    compiled.Pipeline.graph
    (Pipeline.backend_full compiled mem dis).Scheme.memif

(* (a) zero allocation per steady-state cycle, each paper kernel, under
   the event engine and under the scan (the dense regime pinned), over
   the direct backend (the simulator core alone) and over every
   registered scheme's backend: both LSQs (whose store ring wraps and
   whose load list unlinks from the middle), PreVV at both depths, the
   oracle and the serial bound. *)
let test_zero_alloc_steady () =
  let backends =
    ("direct", fun engine kernel -> direct_sim engine kernel)
    :: List.map
         (fun (sname, dis) ->
           (sname, fun engine kernel -> scheme_sim engine kernel dis))
         schemes
  in
  List.iter
    (fun (engine, kernel) ->
      List.iter
        (fun (bname, make) ->
          let name =
            Printf.sprintf "%s/%s/%s" kernel.Pv_kernels.Ast.name bname
              (Sim.string_of_engine engine)
          in
          let sim = make engine kernel in
          (* warm up: ring capacities, response arrays, wake plumbing *)
          steps sim 200;
          let d_short = minor_delta (fun () -> steps sim 300) in
          let d_long = minor_delta (fun () -> steps sim 1000) in
          Alcotest.(check bool)
            (name ^ ": still streaming through the measurement window")
            false (Sim.finished sim);
          Alcotest.(check (float 0.0))
            (name ^ ": minor words per cycle")
            0.0
            ((d_long -. d_short) /. 700.0))
        backends)
    (List.concat_map
       (fun engine -> List.map (fun k -> (engine, k)) kernels)
       [ Sim.Event; Sim.Scan ])

(* (b) the event engine never evaluates more nodes than the scan, on any
   kernel x scheme cell. *)
let test_evals_bounded () =
  List.iter
    (fun kernel ->
      let compiled = Pipeline.compile kernel in
      List.iter
        (fun (sname, dis) ->
          let run engine =
            let sim_cfg = { Sim.default_config with Sim.engine } in
            (Pipeline.simulate ~sim_cfg compiled dis).Pipeline.run_stats
              .Sim.evals
          in
          let scan = run Sim.Scan and event = run Sim.Event in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s: event evals (%d) <= scan evals (%d)"
               kernel.Pv_kernels.Ast.name sname event scan)
            true (event <= scan))
        schemes)
    kernels

(* (j) wake precision: under the serial bound one memory operation is in
   flight at a time, so most nodes sit behind a full output register.
   Such a node sleeps until its output drains, which keeps the event
   engine's work per cycle low on every paper kernel.  The bound sits
   just above the 8.3-16.5 measured with these rules (a take wakes the
   producer within its own cycle only) and below most of the 17.4-36.9 of
   a wake set that keeps every non-empty buffer and pipe awake. *)
let test_serial_wake_precision () =
  List.iter
    (fun kernel ->
      let compiled = Pipeline.compile kernel in
      let r =
        Pipeline.simulate
          ~sim_cfg:{ Sim.default_config with Sim.engine = Sim.Event }
          compiled Scheme.serial
      in
      let per_cycle =
        float_of_int r.Pipeline.run_stats.Sim.evals
        /. float_of_int r.Pipeline.cycles
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s/serial: %.1f evaluations per cycle <= 17"
           kernel.Pv_kernels.Ast.name per_cycle)
        true (per_cycle <= 17.0))
    kernels

(* (c) squash recovery allocates nothing: the purge compacts ring-held
   state in place (the retired allocate-a-scratch-queue-per-squash pattern
   would show up as a per-purge slope here).  The gaussian premise check
   documents that the squash path is actually exercised by a paper
   kernel. *)
let test_purge_no_alloc () =
  let gaussian =
    List.find (fun k -> k.Pv_kernels.Ast.name = "gaussian") kernels
  in
  let compiled = Pipeline.compile gaussian in
  let prevv16 =
    match
      List.find_opt (fun (n, _) -> n = "prevv16") schemes
    with
    | Some (_, dis) -> dis
    | None -> Alcotest.fail "prevv16 not registered"
  in
  let r = Pipeline.simulate compiled prevv16 in
  Alcotest.(check bool)
    "gaussian under prevv16 is squash-heavy" true
    (r.Pipeline.mem_stats.Memif.squashes > 0);
  let sim = direct_sim Sim.Event gaussian in
  steps sim 150;
  (* first purge does the real in-place compaction work (tokens are in
     flight); later ones sweep already-empty state — neither may allocate *)
  let purges n =
    minor_delta (fun () ->
        for _ = 1 to n do
          Sim.purge sim ~seq_err:0
        done)
  in
  let d_short = purges 10 in
  let d_long = purges 100 in
  Alcotest.(check (float 0.0))
    "minor words per purge" 0.0
    ((d_long -. d_short) /. 90.0)

(* (e) the enabled profiler stays on the zero-allocation budget too: it
   only increments preallocated flat arrays, so a profiled steady-state
   cycle allocates exactly as much as an unprofiled one — nothing. *)
let test_zero_alloc_profiled () =
  List.iter
    (fun kernel ->
      let name = kernel.Pv_kernels.Ast.name in
      let sim = direct_sim ~prof:(Pv_obs.Prof.create ()) Sim.Event kernel in
      steps sim 200;
      let d_short = minor_delta (fun () -> steps sim 300) in
      let d_long = minor_delta (fun () -> steps sim 1000) in
      Alcotest.(check (float 0.0))
        (name ^ ": minor words per profiled cycle")
        0.0
        ((d_long -. d_short) /. 700.0))
    kernels

(* (f) profiling is read-only: cycles, evals and per-node fires are
   identical with the profiler on or off, on every paper kernel under
   both instrumented backends. *)
let test_prof_non_perturbing () =
  List.iter
    (fun kernel ->
      let compiled = Pipeline.compile kernel in
      List.iter
        (fun (sname, dis) ->
          let name = kernel.Pv_kernels.Ast.name ^ "/" ^ sname in
          let base = Pipeline.simulate compiled dis in
          let profiled =
            Pipeline.simulate ~prof:(Pv_obs.Prof.create ()) compiled dis
          in
          Alcotest.(check int)
            (name ^ ": cycles unchanged")
            base.Pipeline.cycles profiled.Pipeline.cycles;
          Alcotest.(check int)
            (name ^ ": evals unchanged")
            base.Pipeline.run_stats.Sim.evals
            profiled.Pipeline.run_stats.Sim.evals;
          Alcotest.(check bool)
            (name ^ ": per-node fires unchanged")
            true
            (base.Pipeline.run_stats.Sim.node_fires
            = profiled.Pipeline.run_stats.Sim.node_fires))
        [ ("prevv16", Scheme.prevv 16); ("fast-lsq", Scheme.fast_lsq) ])
    kernels

(* (g) the packed premature-queue/arbiter unit paths allocate nothing:
   record admission, both CAM-view scans (the gate and store-violation
   checking on non-matching addresses, so neither returns a boxed
   [Forward]/[Some]) and both retirement sweeps run purely on the flat
   int arrays. *)
let test_queue_paths_no_alloc () =
  let module PQ = Pv_prevv.Premature_queue in
  let module Arb = Pv_prevv.Arbiter in
  let q = PQ.create 64 in
  let nop (_ : int) = () in
  (* loads live at addresses 0..7, stores at 8..15: the gate always comes
     back [Clear] and violation checking always [None] — immediates *)
  let cycle i =
    ignore
      (PQ.record q ~seq:i ~pos:0 ~port:0 ~kind:Pv_memory.Portmap.OLoad
         ~index:(i land 7) ~value:0
        : bool);
    ignore
      (Arb.load_gate q ~seq:i ~pos:1 ~index:(8 + (i land 7)) : Arb.load_gate);
    ignore
      (PQ.record q ~seq:i ~pos:1 ~port:1 ~kind:Pv_memory.Portmap.OStore
         ~index:(8 + (i land 7)) ~value:i
        : bool);
    ignore
      (Arb.store_violation q ~seq:i ~pos:1 ~index:(8 + (i land 7)) ~value:i
        : int option);
    ignore (PQ.retire_loads_below q ~seq:(i - 4) ~on_port:nop : int);
    ignore (PQ.retire_eq q ~seq:(i - 4) ~on_port:nop : int)
  in
  let window lo n =
    minor_delta (fun () ->
        for i = lo to lo + n - 1 do
          cycle i
        done)
  in
  ignore (window 0 100 : float) (* warm-up: view arrays, compaction *);
  let d_short = window 100 300 in
  let d_long = window 400 1000 in
  Alcotest.(check (float 0.0))
    "minor words per queue cycle" 0.0
    ((d_long -. d_short) /. 700.0)

(* (h) Prof attribution counts records {e actually scanned}: under
   incremental validation, each gated load charges [arbiter_scan] by
   exactly the store-view population and each arriving store charges
   [pq_validate] by exactly the load-view population, at the moment the
   operation reaches the arbiter. *)
let test_prof_records_scanned () =
  let module B = Pv_prevv.Backend in
  (* one ambiguous array: load port 0, store port 1, one group *)
  let pm =
    {
      Pv_memory.Portmap.ports =
        [|
          { Pv_memory.Portmap.id = 0; kind = Pv_memory.Portmap.OLoad;
            array = "x"; instance = Some 0; conditional = false };
          { Pv_memory.Portmap.id = 1; kind = Pv_memory.Portmap.OStore;
            array = "x"; instance = Some 0; conditional = false };
        |];
      n_groups = 1;
      n_instances = 1;
      rom = [| [| [| 0; 1 |] |] |];
    }
  in
  let cfg =
    {
      B.depth_q = 16;
      value_validation = true;
      collapse_queue = true;
      squash_budget = 8;
    }
  in
  let prof = Pv_obs.Prof.create () in
  let mem = Array.make 32 0 in
  let _, b = B.create_full ~prof cfg pm ~n_seq:64 mem in
  for s = 0 to 6 do
    Alcotest.(check bool) "begin accepted" true
      (b.Memif.begin_instance ~seq:s ~group:0)
  done;
  let key s = Pv_dataflow.Types.Token.make ~seq:s ~epoch:0 in
  let phase p = (Pv_obs.Prof.phase_totals prof).(p) in
  let arb () = phase Pv_obs.Prof.phase_arbiter_scan in
  let pqv () = phase Pv_obs.Prof.phase_pq_validate in
  (* three stores into an empty queue: zero load records to accuse *)
  let pqv0 = pqv () in
  for s = 0 to 2 do
    Alcotest.(check bool) "store accepted" true
      (b.Memif.store_req ~port:1 ~key:(key s) ~addr:(1 + s) ~value:(10 + s))
  done;
  Alcotest.(check int) "stores against an empty load view scan nothing" 0
    (pqv () - pqv0);
  (* three loads, each gated against the three queued stores (disjoint
     addresses, so the verdict is Clear and the load is recorded); the
     response is drained between loads to keep the port slot free —
     clocking never touches [arbiter_scan], which is charged only at the
     gate itself *)
  for s = 3 to 5 do
    let a0 = arb () in
    Alcotest.(check bool) "load accepted" true
      (b.Memif.load_req ~port:0 ~key:(key s) ~addr:(10 + s));
    Alcotest.(check int)
      (Printf.sprintf "gated load %d scans the full store view" s)
      3 (arb () - a0);
    let rec drain limit =
      if limit = 0 then Alcotest.fail "load response never arrived";
      match Memif.poll b ~port:0 with
      | Some _ -> ()
      | None ->
          b.Memif.clock ();
          drain (limit - 1)
    in
    drain 10
  done;
  (* one younger store: violation checking scans the three load records *)
  let pqv1 = pqv () in
  Alcotest.(check bool) "final store accepted" true
    (b.Memif.store_req ~port:1 ~key:(key 6) ~addr:20 ~value:9);
  Alcotest.(check int) "arriving store scans the full load view" 3
    (pqv () - pqv1)

(* (k) the golden model resolves every name once, before the walk: beyond
   its array copies, [Interp.run] allocates at most one minor word per leaf
   instance on each paper kernel (the staging, spread over the run; 0.5 at
   most, measured).  A walker that looks a name up per reference allocates
   per reference instead: an option per variable read and an environment
   cell per iteration, 32 words per instance on polyn_mult. *)
let test_interp_alloc () =
  List.iter
    (fun kernel ->
      let init = Pv_kernels.Workload.default_init kernel in
      let instances = Pv_kernels.Interp.count_instances kernel ~init in
      let copies =
        List.fold_left
          (fun acc (_, len) -> acc + len + 1)
          0 kernel.Pv_kernels.Ast.arrays
      in
      let words =
        minor_delta (fun () -> ignore (Pv_kernels.Interp.run kernel ~init))
      in
      let per_instance =
        (words -. float_of_int copies) /. float_of_int instances
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.2f minor words per instance <= 1"
           kernel.Pv_kernels.Ast.name per_instance)
        true (per_instance <= 1.0))
    kernels

(* (d) wheel ordering: equal-expiry entries fire in insertion order, and
   an entry a full lap ahead stays parked in the shared bucket. *)
let test_wheel_fifo () =
  let w = Wheel.create ~buckets:16 () in
  Wheel.add w ~at:5 1;
  Wheel.add w ~at:5 2;
  Wheel.add w ~at:21 9;  (* same bucket as cycle 5, one lap later *)
  Wheel.add w ~at:5 3;
  let fired = ref [] in
  let drain_at now = Wheel.drain w ~now (fun p -> fired := p :: !fired) in
  drain_at 5;
  Alcotest.(check (list int)) "cycle 5 fires FIFO" [ 1; 2; 3 ]
    (List.rev !fired);
  Alcotest.(check int) "lap-ahead entry still parked" 1 (Wheel.pending w);
  fired := [];
  for now = 6 to 20 do
    drain_at now
  done;
  Alcotest.(check (list int)) "nothing due before its lap" [] (List.rev !fired);
  drain_at 21;
  Alcotest.(check (list int)) "parked entry fires on its own lap" [ 9 ]
    (List.rev !fired)

let () =
  Alcotest.run "sim_perf"
    [
      ( "alloc",
        [
          Alcotest.test_case
            "steady-state cycles allocate nothing, every backend" `Quick
            test_zero_alloc_steady;
          Alcotest.test_case "purge allocates nothing" `Quick
            test_purge_no_alloc;
          Alcotest.test_case "profiled cycles allocate nothing" `Quick
            test_zero_alloc_profiled;
          Alcotest.test_case "packed queue paths allocate nothing" `Quick
            test_queue_paths_no_alloc;
          Alcotest.test_case "golden model: <= 1 minor word per instance"
            `Quick test_interp_alloc;
        ] );
      ( "prof",
        [
          Alcotest.test_case "profiling does not perturb" `Quick
            test_prof_non_perturbing;
          Alcotest.test_case "attribution counts records scanned" `Quick
            test_prof_records_scanned;
        ] );
      ( "evals",
        [
          Alcotest.test_case "event <= scan on every kernel x scheme" `Slow
            test_evals_bounded;
          Alcotest.test_case "serial regime: <= 17 evaluations per cycle"
            `Quick test_serial_wake_precision;
        ] );
      ( "wheel",
        [ Alcotest.test_case "FIFO within a bucket" `Quick test_wheel_fifo ] );
    ]
