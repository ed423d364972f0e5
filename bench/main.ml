(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Sec. VI) and the mechanism experiments of Secs. IV-V, plus
   two sections that check themselves: the parallel grid and the service
   chaos soak.

   Usage:
     dune exec bench/main.exe                        -- every table, serial
     dune exec bench/main.exe -- --jobs 4 table1     -- across 4 domains
     dune exec bench/main.exe -- fig1 table1 table2 fig7 queue_states
                                  deadlock depth_sweep scalability
                                  ablation grid soak

   With no section named, every table and figure runs; [grid] and [soak]
   run only when named.  They print their measurements and one line per
   invariant, and the process exits 1 when any invariant fails.  An
   unknown section name prints the usage and exits 2 before anything runs.

   Grid-shaped sections fan their (kernel, scheme) cells across --jobs
   worker domains (Pv_core.Parallel); workers only compute, all printing
   happens on the main domain afterwards, so output is byte-identical to a
   serial run.  --cache / --no-cache switch the content-addressed on-disk
   result cache (default off).  Timing the simulator is perfbench's job
   (perfbench/README.md), and bench/gate.exe gates speed on it. *)

open Pv_core

(* wall clock (CLOCK_MONOTONIC via Pv_core.Clock).  Sys.time is
   per-process CPU time: under multiple domains it sums the busy time of
   every worker and is inflated by their GC, so it is wrong for any
   multi-domain measurement. *)
let now_s () = Clock.now_s ()

let line = String.make 118 '-'

let header title =
  Printf.printf "\n%s\n== %s\n%s\n" line title line

(* ------------------------------------------------------------------ *)
(* Fig. 1: LSQ share of resources in plain Dynamatic circuits          *)
(* ------------------------------------------------------------------ *)

let fig1 ~grid () =
  header
    "Fig. 1 — LSQ resource usage in Dynamatic: share of LUT+FF+mux spent in \
     the LSQ (paper: >80% across tasks)";
  Printf.printf "%-14s %10s %10s %10s %12s\n" "benchmark" "LSQ LUT" "LSQ FF"
    "datapath" "LSQ share";
  List.iter
    (fun row ->
      match row with
      | (p : Experiment.point) :: _ ->
          (* column 0 of the grid is the plain-LSQ Dynamatic baseline *)
          let r = p.Experiment.report in
          Printf.printf "%-14s %10d %10d %10d %11.1f%%\n" p.Experiment.kernel
            r.Pv_resource.Report.queue_luts r.Pv_resource.Report.queue_ffs
            (r.Pv_resource.Report.datapath_luts
            + r.Pv_resource.Report.datapath_ffs)
            (100.0 *. Pv_resource.Report.queue_share r)
      | [] -> assert false)
    (Lazy.force grid)

(* ------------------------------------------------------------------ *)
(* Table I: resource usage                                             *)
(* ------------------------------------------------------------------ *)

let table1 ~grid () =
  header
    "Table I — Resource usage (LUT / FF) for Dynamatic [15], fast-LSQ [8], \
     PreVV16 and PreVV64";
  Printf.printf "%-12s | %31s | %31s | %9s %9s | %9s %9s\n" "" "LUT" "FF"
    "v16/[8]" "v64/[8]" "v16/[8]" "v64/[8]";
  Printf.printf "%-12s | %7s %7s %7s %7s | %7s %7s %7s %7s | %9s %9s | %9s %9s\n"
    "benchmark" "[15]" "[8]" "v16" "v64" "[15]" "[8]" "v16" "v64" "LUT" "LUT"
    "FF" "FF";
  let l16 = ref [] and l64 = ref [] and f16 = ref [] and f64 = ref [] in
  List.iter
    (fun row ->
      match row with
      | [ p15; p8; v16; v64 ] ->
          let lut (p : Experiment.point) = p.Experiment.report.Pv_resource.Report.luts in
          let ff (p : Experiment.point) = p.Experiment.report.Pv_resource.Report.ffs in
          l16 := (float_of_int (lut v16) /. float_of_int (lut p8)) :: !l16;
          l64 := (float_of_int (lut v64) /. float_of_int (lut p8)) :: !l64;
          f16 := (float_of_int (ff v16) /. float_of_int (ff p8)) :: !f16;
          f64 := (float_of_int (ff v64) /. float_of_int (ff p8)) :: !f64;
          Printf.printf
            "%-12s | %7d %7d %7d %7d | %7d %7d %7d %7d | %8.2f%% %8.2f%% | \
             %8.2f%% %8.2f%%\n"
            p15.Experiment.kernel (lut p15) (lut p8) (lut v16) (lut v64)
            (ff p15) (ff p8) (ff v16) (ff v64)
            (Experiment.pct (lut v16) (lut p8))
            (Experiment.pct (lut v64) (lut p8))
            (Experiment.pct (ff v16) (ff p8))
            (Experiment.pct (ff v64) (ff p8))
      | _ -> assert false)
    (Lazy.force grid);
  Printf.printf
    "%-12s | %31s | %31s | %8.2f%% %8.2f%% | %8.2f%% %8.2f%%\n" "geomean" "" ""
    (100.0 *. (Experiment.geomean !l16 -. 1.0))
    (100.0 *. (Experiment.geomean !l64 -. 1.0))
    (100.0 *. (Experiment.geomean !f16 -. 1.0))
    (100.0 *. (Experiment.geomean !f64 -. 1.0));
  Printf.printf
    "(paper geomeans: LUT v16 -43.75%%, v64 -26.45%%; FF v16 -44.70%%, v64 \
     -33.54%%)\n"

(* ------------------------------------------------------------------ *)
(* Table II: timing performance                                        *)
(* ------------------------------------------------------------------ *)

let table2 ~grid () =
  header
    "Table II — Timing: cycle count, clock period (ns) and execution time \
     (us)";
  Printf.printf "%-12s | %27s | %23s | %27s | %9s %9s\n" "" "cycles"
    "CP (ns)" "exec time (us)" "v16/[8]" "v64/[8]";
  Printf.printf "%-12s | %6s %6s %6s %6s | %5s %5s %5s %5s | %6s %6s %6s %6s |\n"
    "benchmark" "[15]" "[8]" "v16" "v64" "[15]" "[8]" "v16" "v64" "[15]" "[8]"
    "v16" "v64";
  let e16 = ref [] and e64 = ref [] in
  List.iter
    (fun row ->
      match row with
      | [ p15; p8; v16; v64 ] ->
          let cyc (p : Experiment.point) = p.Experiment.cycles in
          let cp (p : Experiment.point) = p.Experiment.report.Pv_resource.Report.cp_ns in
          let ex (p : Experiment.point) = p.Experiment.exec_us in
          e16 := (ex v16 /. ex p8) :: !e16;
          e64 := (ex v64 /. ex p8) :: !e64;
          Printf.printf
            "%-12s | %6d %6d %6d %6d | %5.2f %5.2f %5.2f %5.2f | %6.2f %6.2f \
             %6.2f %6.2f | %8.2f%% %8.2f%%\n"
            p15.Experiment.kernel (cyc p15) (cyc p8) (cyc v16) (cyc v64)
            (cp p15) (cp p8) (cp v16) (cp v64) (ex p15) (ex p8) (ex v16)
            (ex v64)
            (Experiment.pctf (ex v16) (ex p8))
            (Experiment.pctf (ex v64) (ex p8))
      | _ -> assert false)
    (Lazy.force grid);
  Printf.printf "%-12s | %27s | %23s | %27s | %8.2f%% %8.2f%%\n" "geomean" ""
    "" ""
    (100.0 *. (Experiment.geomean !e16 -. 1.0))
    (100.0 *. (Experiment.geomean !e64 -. 1.0));
  Printf.printf
    "(paper: PreVV16 +10.79%% cycles; PreVV64 -2.64%% execution time vs [8])\n"

(* ------------------------------------------------------------------ *)
(* Fig. 7: resource usage normalised to Dynamatic [15]                 *)
(* ------------------------------------------------------------------ *)

let fig7 ~grid () =
  header
    "Fig. 7 — LUT (solid) and FF (dashed) normalised to Dynamatic [15]";
  Printf.printf "%-12s | %8s %8s %8s | %8s %8s %8s\n" "" "LUT[8]" "LUTv16"
    "LUTv64" "FF[8]" "FFv16" "FFv64";
  List.iter
    (fun row ->
      match row with
      | [ p15; p8; v16; v64 ] ->
          let lut (p : Experiment.point) =
            float_of_int p.Experiment.report.Pv_resource.Report.luts
          in
          let ff (p : Experiment.point) =
            float_of_int p.Experiment.report.Pv_resource.Report.ffs
          in
          Printf.printf "%-12s | %8.3f %8.3f %8.3f | %8.3f %8.3f %8.3f\n"
            p15.Experiment.kernel
            (lut p8 /. lut p15) (lut v16 /. lut p15) (lut v64 /. lut p15)
            (ff p8 /. ff p15) (ff v16 /. ff p15) (ff v64 /. ff p15)
      | _ -> assert false)
    (Lazy.force grid)

(* ------------------------------------------------------------------ *)
(* Fig. 4: premature queue states                                      *)
(* ------------------------------------------------------------------ *)

let queue_states () =
  header "Fig. 4 — premature queue states (normal / wrap-around / full)";
  let module PQ = Pv_prevv.Premature_queue in
  let q = PQ.create 8 in
  let record seq =
    PQ.record q ~seq ~pos:0 ~port:0 ~kind:Pv_memory.Portmap.OStore ~index:seq
      ~value:seq
  in
  let push seq = if not (record seq) then failwith "queue_states: queue full" in
  let show what =
    Printf.printf "  %-30s head=%d tail=%d occ=%d state=%s\n" what q.PQ.head
      q.PQ.tail (PQ.occupancy q)
      (match PQ.state q with
      | `Empty -> "empty"
      | `Normal -> "normal"
      | `Wrapped -> "wrap-around"
      | `Full -> "full")
  in
  let retire seq = ignore (PQ.retire_eq q ~seq ~on_port:ignore : int) in
  show "fresh queue";
  for s = 0 to 4 do push s done;
  show "after 5 pushes";
  List.iter retire [ 0; 1; 2 ];
  show "after retiring 3 (head moved)";
  for s = 5 to 9 do push s done;
  show "tail wrapped past the end";
  push 10;
  show "filled to capacity";
  if not (record 11) then
    Printf.printf "  %-30s push refused (backpressure)\n" "one more push:"

(* ------------------------------------------------------------------ *)
(* Fig. 6 / Sec. V-C: deadlock without fake tokens                     *)
(* ------------------------------------------------------------------ *)

let deadlock () =
  header
    "Fig. 6 / Sec. V-C — conditional ambiguous pair: fake tokens prevent \
     deadlock";
  let kernel = Pv_kernels.Defs.cond_update () in
  List.iter
    (fun (what, fake_tokens) ->
      let compiled =
        Pipeline.compile
          ~options:
            { Pv_frontend.Build.default_options with
              Pv_frontend.Build.fake_tokens }
          kernel
      in
      let sim_cfg =
        { Pv_dataflow.Sim.default_config with Pv_dataflow.Sim.stall_limit = 512 }
      in
      let r = Pipeline.simulate ~sim_cfg compiled (Scheme.prevv 8) in
      Printf.printf "  %-24s -> %s (fake tokens seen: %d)\n" what
        (Format.asprintf "%a" Pv_dataflow.Sim.pp_outcome r.Pipeline.outcome)
        r.Pipeline.mem_stats.Pv_dataflow.Memif.fake_tokens)
    [ ("with fake tokens", true); ("without fake tokens", false) ]

(* ------------------------------------------------------------------ *)
(* Sec. V-A: premature queue depth sweep                               *)
(* ------------------------------------------------------------------ *)

(* the paper kernels at each named depth: cycles, the knee (the smallest
   depth within 2% of the best verified cycle count) and the LUTs there
   and at depth 64 *)
let depth_sweep ~jobs ~cache () =
  header
    "Sec. V-A — queue-depth sweep: cycles per named Depth_q, the knee and its \
     LUTs (PreVV)";
  let depths = [ 1; 2; 3; 4; 6; 8; 12; 16; 24; 32; 48; 64 ] in
  let kernels = Pv_kernels.Defs.paper_benchmarks () in
  let results =
    Experiment.sweep ?cache ~jobs
      (List.concat_map
         (fun k -> List.map (fun d -> (k, Scheme.prevv d)) depths)
         kernels)
  in
  (* one column per kernel: its (depth, result) cells *)
  let columns =
    List.mapi
      (fun ki _ ->
        List.combine depths
          (List.filteri (fun i _ -> i / List.length depths = ki) results))
      kernels
  in
  let row name cells =
    Printf.printf "%-10s%s\n" name
      (String.concat "" (List.map (Printf.sprintf " %11s") cells))
  in
  row "depth" (List.map (fun (k : Pv_kernels.Ast.kernel) -> k.name) kernels);
  List.iter
    (fun d ->
      row (string_of_int d)
        (List.map
           (fun col ->
             match List.assoc d col with
             | Ok (p : Experiment.point) when p.Experiment.verified ->
                 string_of_int p.Experiment.cycles
             | Ok _ -> "NOT VERIFIED"
             | Error _ -> "infeasible")
           columns))
    depths;
  let verified col =
    List.filter_map
      (function
        | d, Ok (p : Experiment.point) when p.Experiment.verified -> Some (d, p)
        | _ -> None)
      col
  in
  let knee col =
    let points = verified col in
    let best =
      List.fold_left (fun m (_, p) -> min m p.Experiment.cycles) max_int points
    in
    List.find_opt
      (fun (_, (p : Experiment.point)) -> p.Experiment.cycles * 100 <= best * 102)
      points
  in
  let luts = function
    | Some (p : Experiment.point) ->
        string_of_int p.Experiment.report.Pv_resource.Report.luts
    | None -> "-"
  in
  row "knee"
    (List.map
       (fun col -> match knee col with Some (d, _) -> string_of_int d | None -> "-")
       columns);
  row "LUT knee" (List.map (fun col -> luts (Option.map snd (knee col))) columns);
  row "LUT 64"
    (List.map (fun col -> luts (List.assoc_opt 64 (verified col))) columns);
  List.iter
    (function
      | Error (e : Supervisor.task_error) ->
          Printf.printf "%s: %s\n" e.label e.last_error
      | Ok _ -> ())
    results;
  Printf.printf
    "(knee: the smallest depth within 2%% of the kernel's best verified cycle \
     count)\n"

(* ------------------------------------------------------------------ *)
(* Sec. V-B: overlap chains on the one shared instance                 *)
(* ------------------------------------------------------------------ *)

(* n accumulations into one array form n * n ambiguous pairs; the circuit
   keeps one disambiguation instance for all of them *)
let scalability ~jobs ~cache () =
  header
    "Sec. V-B — overlap chains: n accumulations into one array on one shared \
     instance (PreVV16 vs fast LSQ [8])";
  let ns = [ 1; 2; 3; 4; 6; 8 ] in
  let kernels = List.map (fun n -> Pv_kernels.Defs.overlap_chain ~n) ns in
  let results =
    Array.of_list
      (Experiment.sweep ?cache ~jobs
         (List.concat_map
            (fun k -> [ (k, Scheme.prevv 16); (k, Scheme.fast_lsq) ])
            kernels))
  in
  Printf.printf "%-4s %11s %9s | %9s %9s %9s %7s %7s  %-12s | %9s\n" "n"
    "naive pairs" "instances" "v16 LUT" "queue LUT" "v16 FF" "CP (ns)" "cycles"
    "verdict" "[8] LUT";
  List.iteri
    (fun i (n, k) ->
      let info = Pv_frontend.Depend.analyse k in
      Printf.printf "%-4d %11d %9d | " n
        (Pv_frontend.Depend.naive_pair_count info)
        info.Pv_frontend.Depend.portmap.Pv_memory.Portmap.n_instances;
      match (results.(2 * i), results.((2 * i) + 1)) with
      | Ok (p : Experiment.point), Ok (q : Experiment.point) ->
          let r = p.Experiment.report in
          Printf.printf "%9d %9d %9d %7.2f %7d  %-12s | %9d\n"
            r.Pv_resource.Report.luts r.Pv_resource.Report.queue_luts
            r.Pv_resource.Report.ffs r.Pv_resource.Report.cp_ns
            p.Experiment.cycles
            (if p.Experiment.verified then "verified" else "NOT VERIFIED")
            q.Experiment.report.Pv_resource.Report.luts
      | Error (e : Supervisor.task_error), _ | _, Error e ->
          Printf.printf "%s: %s\n" e.label e.last_error)
    (List.combine ns kernels)

(* ------------------------------------------------------------------ *)
(* Ablations of the design choices DESIGN.md calls out                 *)
(* ------------------------------------------------------------------ *)

(* every ablation job computes in a worker and returns plain data; the
   main domain prints after the fan-out, keeping output byte-identical
   whatever the worker count *)
let ablation ~jobs () =
  header "Ablations — value validation (Eq. 5), queue collapse, forwarding, \
     slack buffers";
  (* Eq. 5 on/off: when stores often rewrite unchanged values, comparing
     values instead of only addresses eliminates squashes *)
  Printf.printf "value validation (PreVV16):\n";
  Printf.printf "  %-16s %14s %14s %14s %14s\n" "kernel" "cycles(on)"
    "squash(on)" "cycles(off)" "squash(off)";
  let vv_rows =
    Parallel.map ~jobs
      (fun (k : Pv_kernels.Ast.kernel) ->
        let run value_validation =
          let compiled = Pipeline.compile k in
          Pipeline.simulate compiled
            (Scheme.Prevv
               { (Pv_prevv.Backend.named ~depth:16) with
                 Pv_prevv.Backend.value_validation })
        in
        let on = run true and off = run false in
        ( k.Pv_kernels.Ast.name,
          on.Pipeline.cycles,
          on.Pipeline.mem_stats.Pv_dataflow.Memif.squashes,
          off.Pipeline.cycles,
          off.Pipeline.mem_stats.Pv_dataflow.Memif.squashes ))
      [
        Pv_kernels.Defs.running_max ();
        Pv_kernels.Defs.stencil1d ();
        Pv_kernels.Defs.triangular_tight ();
        Pv_kernels.Defs.fn_dependent ();
      ]
  in
  List.iter
    (fun (name, cyc_on, sq_on, cyc_off, sq_off) ->
      Printf.printf "  %-16s %14d %14d %14d %14d\n" name cyc_on sq_on cyc_off
        sq_off)
    vv_rows;
  (* collapsing queue on/off: without interior reclamation the queue
     fragments and the pipeline wedges *)
  Printf.printf "\ncollapsing premature queue (gaussian, PreVV16):\n";
  let collapse_rows =
    Parallel.map ~jobs
      (fun (what, collapse_queue) ->
        let compiled = Pipeline.compile (Pv_kernels.Defs.gaussian ()) in
        let sim_cfg =
          { Pv_dataflow.Sim.default_config with Pv_dataflow.Sim.stall_limit = 2000 }
        in
        let r =
          Pipeline.simulate ~sim_cfg compiled
            (Scheme.Prevv
               { (Pv_prevv.Backend.named ~depth:16) with
                 Pv_prevv.Backend.collapse_queue })
        in
        (what, Format.asprintf "%a" Pv_dataflow.Sim.pp_outcome r.Pipeline.outcome))
      [ ("with collapse", true); ("without collapse", false) ]
  in
  List.iter
    (fun (what, outcome) -> Printf.printf "  %-22s -> %s\n" what outcome)
    collapse_rows;
  (* store-to-load forwarding in the LSQ *)
  Printf.printf "\nLSQ store-to-load forwarding (matvec, fast LSQ):\n";
  let fwd_rows =
    Parallel.map ~jobs
      (fun (what, forwarding) ->
        let compiled = Pipeline.compile (Pv_kernels.Defs.matvec ()) in
        let r =
          Pipeline.simulate compiled
            (Scheme.Fast_lsq { Pv_lsq.Lsq.fast with Pv_lsq.Lsq.forwarding })
        in
        (what, r.Pipeline.cycles, r.Pipeline.mem_stats.Pv_dataflow.Memif.forwarded))
      [ ("with forwarding", true); ("without forwarding", false) ]
  in
  List.iter
    (fun (what, cycles, forwarded) ->
      Printf.printf "  %-22s -> %d cycles (%d forwarded)\n" what cycles forwarded)
    fwd_rows;
  (* load CSE: repeated loads share one port, shrinking the premature
     record count per iteration *)
  Printf.printf "\nload CSE (histogram, PreVV16):\n";
  let cse_rows =
    Parallel.map ~jobs
      (fun (what, cse) ->
        let options =
          { Pv_frontend.Build.default_options with Pv_frontend.Build.cse }
        in
        let compiled = Pipeline.compile ~options (Pv_kernels.Defs.histogram ()) in
        let ports =
          Array.length
            compiled.Pipeline.info.Pv_frontend.Depend.portmap.Pv_memory.Portmap.ports
        in
        let p =
          Pv_resource.Report.of_circuit compiled.Pipeline.graph
            compiled.Pipeline.info.Pv_frontend.Depend.portmap
            (Pv_netlist.Elaborate.D_prevv 16)
        in
        let r = Pipeline.simulate compiled (Scheme.prevv 16) in
        (what, ports, p.Pv_resource.Report.luts, r.Pipeline.cycles))
      [ ("without CSE", false); ("with CSE", true) ]
  in
  List.iter
    (fun (what, ports, luts, cycles) ->
      Printf.printf "  %-22s -> %d ports, %d LUTs, %d cycles\n" what ports luts
        cycles)
    cse_rows;
  (* slack-buffer balancing *)
  Printf.printf "\nthroughput balancing (polyn_mult, PreVV16):\n";
  let bal_rows =
    Parallel.map ~jobs
      (fun (what, balance) ->
        let compiled =
          Pipeline.compile
            ~options:{ Pv_frontend.Build.default_options with Pv_frontend.Build.balance }
            (Pv_kernels.Defs.polyn_mult ())
        in
        let r = Pipeline.simulate compiled (Scheme.prevv 16) in
        (what, r.Pipeline.cycles))
      [ ("with slack buffers", true); ("without", false) ]
  in
  List.iter
    (fun (what, cycles) -> Printf.printf "  %-22s -> %d cycles\n" what cycles)
    bal_rows

(* ------------------------------------------------------------------ *)
(* Self-checking sections                                              *)
(* ------------------------------------------------------------------ *)

(* Print each named invariant with its verdict; true when all hold. *)
let check invariants =
  List.iter
    (fun (name, ok) ->
      Printf.printf "  check %-36s %s\n" name (if ok then "ok" else "VIOLATION"))
    invariants;
  List.for_all snd invariants

(* ------------------------------------------------------------------ *)
(* Grid: the Table I/II grid serial, parallel and cached               *)
(* ------------------------------------------------------------------ *)

(* Serial and parallel both run cache-cold, so the comparison is compute
   against compute; each is the best of three alternating runs, after a
   second of untimed parallel grids.  One grid takes a fraction of a
   second, and every stop-the-world minor collection waits for each worker
   domain: on a 2-vCPU virtual machine left idle for a few seconds, that
   wait made the first second of parallel runs slower than serial ones.
   The cached grid is the second of two passes through the --cache
   directory, or through a fresh in-memory cache without one, so every
   cell must come from the cache.  An explicit worker count within
   [1, max_jobs] must be honoured exactly, more than one worker must beat
   one, and every grid must be identical. *)
let grid ~jobs ~cache () =
  header "table1+table2 grid: serial vs parallel vs cached";
  let timed f =
    let t0 = now_s () in
    let v = f () in
    (v, now_s () -. t0)
  in
  let t0 = now_s () in
  while now_s () -. t0 < 1.0 do
    ignore (Experiment.paper_grid ~jobs ())
  done;
  let runs =
    List.init 3 (fun _ ->
        let s = timed (fun () -> Experiment.paper_grid ()) in
        (s, timed (fun () -> Experiment.paper_grid ~jobs ())))
  in
  let best = List.fold_left (fun a (_, t) -> Float.min a t) infinity in
  let wall_serial = best (List.map fst runs)
  and wall_parallel = best (List.map snd runs) in
  let serial = fst (fst (List.hd runs)) in
  let same g = List.for_all (fun (g', _) -> g' = g) in
  let cache =
    match cache with Some c -> c | None -> Parallel.Cache.in_memory ()
  in
  ignore (Experiment.paper_grid ~cache ~jobs ());
  Parallel.Cache.reset_stats cache;
  let cached, wall_cached =
    timed (fun () -> Experiment.paper_grid ~cache ~jobs ())
  in
  let effective = Parallel.effective_jobs jobs in
  let speedup = wall_serial /. max wall_parallel epsilon_float in
  let points = List.length (List.concat serial) in
  Printf.printf
    "%d points, best of 3: serial %.3fs, parallel (%d jobs requested, %d \
     effective) %.3fs, speedup %.2fx\n"
    points wall_serial jobs effective wall_parallel speedup;
  Printf.printf "cached pass: %.3fs, %d hits / %d misses\n" wall_cached
    (Parallel.Cache.hits cache) (Parallel.Cache.misses cache);
  check
    ([
       ( "jobs_effective = jobs_requested",
         jobs > Parallel.max_jobs || effective = jobs );
     ]
    @ (if jobs > 1 then [ ("parallel_speedup > 1.0", speedup > 1.0) ] else [])
    @ [
        ( "parallel grid = serial grid",
          same serial (List.map fst runs) && same serial (List.map snd runs) );
        ("cached grid = serial grid", cached = serial);
        ("cached pass all hits", Parallel.Cache.hits cache = points);
      ])

(* ------------------------------------------------------------------ *)
(* Chaos soak: the supervised service under load and faults           *)
(* ------------------------------------------------------------------ *)

(* A deterministic request stream over the paper grid: every (kernel,
   backend) cell, ~1% low-budget requests whose simulation times out
   deterministically (the "timeout fault plan"), and a seeded
   recoverable-fault slice.  Ids and ordering are fixed, so two runs of
   the same stream must produce byte-identical response streams. *)
let soak_requests n =
  let kernels =
    Array.of_list
      (List.map
         (fun (k : Pv_kernels.Ast.kernel) -> k.Pv_kernels.Ast.name)
         (Pv_kernels.Defs.paper_benchmarks ()))
  in
  let backends =
    Array.of_list (List.map Pv_core.Scheme.to_string (Experiment.paper_configs ()))
  in
  List.init n (fun i ->
      let kernel = kernels.(i * 7919 mod Array.length kernels) in
      let backend = backends.((i * 104729 / 13) mod Array.length backends) in
      let r =
        Service.request ~id:(Printf.sprintf "r%05d" i) ~kernel ~backend ()
      in
      if i mod 97 = 3 then { r with Service.max_cycles = Some 50 }
      else if i mod 131 = 7 then
        { r with Service.fault_seed = Some (1 + (i mod 3)) }
      else r)

(* feed [requests] through the service and collect the response stream *)
let run_soak ~jobs ~capacity requests =
  let cache = Parallel.Cache.in_memory () in
  let remaining = ref requests in
  let out = Buffer.create 4096 in
  let cfg =
    {
      Service.default_config with
      Service.jobs;
      Service.queue_capacity = capacity;
      Service.cache = Some cache;
    }
  in
  let summary =
    Service.run cfg
      ~next:(fun () ->
        match !remaining with
        | [] -> None
        | r :: tl ->
            remaining := tl;
            Some (Service.request_to_json r))
      ~emit:(fun l ->
        Buffer.add_string out l;
        Buffer.add_char out '\n')
  in
  (summary, Buffer.contents out)

let hit_rate (s : Service.summary) =
  let total = s.Service.cache_hits + s.Service.cache_misses in
  if total = 0 then 0.0
  else float_of_int s.Service.cache_hits /. float_of_int total

(* The main phase uses an unoverflowable queue so the response stream is
   byte-comparable to the serial replay (shedding depends on queue
   dynamics); the burst phase then drives a tiny queue past capacity to
   exercise explicit load-shedding.  No phase may lose a response. *)
let soak ~jobs ~n () =
  header
    (Printf.sprintf
       "chaos soak — %d requests through the supervised service (--jobs %d)"
       n jobs);
  let requests = soak_requests n in
  let sp, out_parallel = run_soak ~jobs ~capacity:(2 * n) requests in
  let ss, out_serial = run_soak ~jobs:1 ~capacity:(2 * n) requests in
  let identical = String.equal out_parallel out_serial in
  Printf.printf
    "parallel: %.1f req/s, p50 %.3f ms, p95 %.3f ms, p99 %.3f ms, cache hit \
     rate %.3f, dedup %d, retries %d, shed %d, lost: %d\n"
    sp.Service.requests_per_s sp.Service.p50_ms sp.Service.p95_ms
    sp.Service.p99_ms (hit_rate sp) sp.Service.dedup_hits sp.Service.retries
    sp.Service.shed sp.Service.lost;
  Printf.printf "serial replay: %.1f req/s, lost: %d\n"
    ss.Service.requests_per_s ss.Service.lost;
  Printf.printf "byte-identical to serial replay: %b\n" identical;
  (* overload burst: cold cache, distinct cells, a queue of 4 — every
     request past capacity must get an explicit overloaded response *)
  let burst =
    List.init 64 (fun i ->
        let r =
          Service.request
            ~id:(Printf.sprintf "b%03d" i)
            ~kernel:"gaussian" ~backend:"prevv16" ()
        in
        { r with Service.max_cycles = Some (1000 + i) })
  in
  let sb, _ = run_soak ~jobs ~capacity:4 burst in
  Printf.printf "overload burst (queue=4): %d requests, shed %d, lost: %d\n"
    sb.Service.received sb.Service.shed sb.Service.lost;
  check
    [
      ( "lost = 0 in every phase",
        sp.Service.lost = 0 && ss.Service.lost = 0 && sb.Service.lost = 0 );
      ("identical to the serial replay", identical);
      ("main phase shed = 0", sp.Service.shed = 0);
      ("burst shed > 0", sb.Service.shed > 0);
    ]

(* ------------------------------------------------------------------ *)

let sections =
  [
    "fig1"; "table1"; "table2"; "fig7"; "queue_states"; "deadlock";
    "depth_sweep"; "scalability"; "ablation"; "grid"; "soak";
  ]

(* the paper's tables and figures: everything but the two checks *)
let default_sections =
  List.filter (fun s -> s <> "grid" && s <> "soak") sections

let usage () =
  prerr_endline
    ("usage: main.exe [--jobs N] [--cache|--no-cache] [SECTION...]\n\
      sections: " ^ String.concat " " sections);
  exit 2

let () =
  (* hand-rolled flag parsing: sections and flags may be interleaved;
     every name is checked before any section runs *)
  let args =
    match Array.to_list Sys.argv with _ :: rest -> rest | [] -> []
  in
  let jobs = ref 1 in
  let cache_on = ref false in
  let requested = ref [] in
  let rec parse = function
    | [] -> ()
    | "--jobs" :: n :: rest -> (
        match int_of_string_opt n with
        | Some n when n >= 1 ->
            jobs := n;
            parse rest
        | _ -> usage ())
    | "--cache" :: rest ->
        cache_on := true;
        parse rest
    | "--no-cache" :: rest ->
        cache_on := false;
        parse rest
    | s :: rest when List.mem s sections ->
        requested := s :: !requested;
        parse rest
    | s :: _ ->
        Printf.eprintf "unknown %s %S\n"
          (if String.starts_with ~prefix:"-" s then "flag" else "section")
          s;
        usage ()
  in
  parse args;
  let jobs = !jobs in
  let cache =
    if !cache_on then
      Some (Parallel.Cache.on_disk ~dir:(Parallel.Cache.default_dir ()) ())
    else None
  in
  let requested =
    match List.rev !requested with [] -> default_sections | l -> l
  in
  (* one shared grid for the grid-based sections, computed across the
     worker pool on first use *)
  let paper_grid = lazy (Experiment.paper_grid ?cache ~jobs ()) in
  let table f =
    f ();
    true
  in
  let run = function
    | "fig1" -> table (fig1 ~grid:paper_grid)
    | "table1" -> table (table1 ~grid:paper_grid)
    | "table2" -> table (table2 ~grid:paper_grid)
    | "fig7" -> table (fig7 ~grid:paper_grid)
    | "queue_states" -> table queue_states
    | "deadlock" -> table deadlock
    | "depth_sweep" -> table (depth_sweep ~jobs ~cache)
    | "scalability" -> table (scalability ~jobs ~cache)
    | "ablation" -> table (ablation ~jobs)
    | "grid" -> grid ~jobs ~cache ()
    | "soak" -> soak ~jobs ~n:10_000 ()
    | s -> invalid_arg s
  in
  (* every requested section runs; the exit code reports any failed check *)
  let ok = List.fold_left (fun ok s -> run s && ok) true requested in
  if not ok then exit 1
