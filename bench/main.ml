(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Sec. VI), plus the mechanism experiments of Secs. IV-V, and
   runs Bechamel micro-benchmarks of the simulator itself.

   Usage:
     dune exec bench/main.exe                        -- everything, serial
     dune exec bench/main.exe -- --jobs 4 table1     -- across 4 domains
     dune exec bench/main.exe -- --json [PATH]       -- baselines JSON (v4)
     dune exec bench/main.exe -- --backend prevv64 --json
     dune exec bench/main.exe -- fig1 table1 table2 fig7 queue_states
                                  deadlock depth_sweep scalability
                                  ablation bounds micro soak

   Backend names (--backend, engine baselines of --json) are parsed by
   the scheme registry (Pv_core.Scheme.of_string), the same parser the
   CLI's --backend flag uses.

   Grid-shaped sections fan their (kernel, scheme) cells across --jobs
   worker domains (Pv_core.Parallel); workers only compute, all printing
   happens on the main domain afterwards, so output is byte-identical to a
   serial run.  --cache / --no-cache control the content-addressed result
   cache (default: on for --json, off for tables). *)

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
  let q = Pv_prevv.Premature_queue.create 8 in
  let push seq =
    ignore
      (Pv_prevv.Premature_queue.push_exn q ~seq ~pos:0 ~port:0
         ~kind:Pv_memory.Portmap.OStore ~index:seq ~value:seq)
  in
  let show what =
    Printf.printf "  %-30s head=%d tail=%d occ=%d state=%s\n" what
      q.Pv_prevv.Premature_queue.head q.Pv_prevv.Premature_queue.tail
      (Pv_prevv.Premature_queue.occupancy q)
      (match Pv_prevv.Premature_queue.state q with
      | `Empty -> "empty"
      | `Normal -> "normal"
      | `Wrapped -> "wrap-around"
      | `Full -> "full")
  in
  show "fresh queue";
  for s = 0 to 4 do push s done;
  show "after 5 pushes";
  Pv_prevv.Premature_queue.retire_seq q ~seq:0;
  Pv_prevv.Premature_queue.retire_seq q ~seq:1;
  Pv_prevv.Premature_queue.retire_seq q ~seq:2;
  show "after retiring 3 (head moved)";
  for s = 5 to 9 do push s done;
  show "tail wrapped past the end";
  push 10;
  show "filled to capacity";
  try push 11 with Pv_prevv.Premature_queue.Full ->
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
      let r =
        Pipeline.simulate ~sim_cfg compiled (Pipeline.prevv ~fake_tokens 8)
      in
      Printf.printf "  %-24s -> %s (fake tokens seen: %d)\n" what
        (Format.asprintf "%a" Pv_dataflow.Sim.pp_outcome r.Pipeline.outcome)
        r.Pipeline.mem_stats.Pv_dataflow.Memif.fake_tokens)
    [ ("with fake tokens", true); ("without fake tokens", false) ]

(* ------------------------------------------------------------------ *)
(* Eqs. 6-10: premature queue depth sweep and the sizing model          *)
(* ------------------------------------------------------------------ *)

let depth_sweep ~jobs ~cache () =
  header
    "Sec. V-A — queue-depth sweep: cycles and LUTs vs Depth_q (Defs. 2-3)";
  let kernel = Pv_kernels.Defs.gaussian () in
  Printf.printf "%-8s %10s %10s %12s %10s\n" "depth" "cycles" "LUT" "stalls"
    "squashes";
  let depths = [ 4; 8; 16; 24; 32; 48; 64; 96; 128 ] in
  let cells = List.map (fun d -> (kernel, Pipeline.prevv d)) depths in
  let results = Experiment.sweep ?cache ~jobs cells in
  List.iter2
    (fun d result ->
      match result with
      | Ok (p : Experiment.point) ->
          Printf.printf "%-8d %10d %10d %12d %10d%s\n" d p.Experiment.cycles
            p.Experiment.report.Pv_resource.Report.luts
            p.Experiment.mem_stats.Pv_dataflow.Memif.stall_full
            p.Experiment.mem_stats.Pv_dataflow.Memif.squashes
            (if p.Experiment.verified then "" else "  (NOT VERIFIED)")
      | Error (e : Supervisor.task_error) ->
          Printf.printf "%-8d infeasible: %s\n" d e.last_error)
    depths results;
  let t_org = 10.0 and p_s = 0.02 and t_token = 60.0 in
  Printf.printf
    "sizing model: matched depth (Eq. 6/7, t_org=%.0f cyc, P_s=%.2f, \
     t_token=%.0f cyc) = %d\n"
    t_org p_s t_token
    (Pv_prevv.Sizing.matched_depth ~t_org ~p_s ~t_token)

(* ------------------------------------------------------------------ *)
(* Eqs. 11-12: overlap scalability                                     *)
(* ------------------------------------------------------------------ *)

let scalability () =
  header
    "Sec. V-B — overlapping pairs: naive replication (Eqs. 11-12) vs \
     dimension reduction";
  let frq1 = 150.0 in
  Printf.printf "%-10s %16s %16s %14s %12s %12s\n" "overlap n" "naive compl."
    "reduced compl." "naive MHz" "naive pairs" "red. pairs";
  List.iter
    (fun n ->
      let ops =
        List.init (2 * n) (fun k ->
            ( (if k mod 2 = 0 then Pv_memory.Portmap.OLoad
               else Pv_memory.Portmap.OStore),
              k ))
      in
      Printf.printf "%-10d %16.0f %16.0f %14.1f %12d %12d\n" n
        (Pv_prevv.Overlap.naive_complexity ~n ~com1:1.0)
        (Pv_prevv.Overlap.reduced_complexity ~n ~com1:1.0)
        (Pv_prevv.Overlap.naive_frequency ~n ~frq1)
        (Pv_prevv.Overlap.naive_pairs ops)
        (Pv_prevv.Overlap.reduced_pairs ops))
    [ 1; 2; 4; 6; 8; 12; 16 ];
  Printf.printf
    "(Eq. 11: naive cost 2^n; Eq. 12: frequency Frq_1/n at Frq_1 = %.0f MHz; \
     reduction keeps one instance per array, linear in members)\n"
    frq1

(* ------------------------------------------------------------------ *)
(* Ablations of the design choices DESIGN.md calls out                 *)
(* ------------------------------------------------------------------ *)

(* every ablation job computes in a worker and returns plain data; the
   main domain prints after the fan-out, keeping output byte-identical
   whatever the worker count *)
let ablation ~jobs () =
  header "Ablations — value validation (Eq. 5), queue collapse, forwarding,           slack buffers";
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
            (Pipeline.Prevv
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
            (Pipeline.Prevv
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
            (Pipeline.Fast_lsq { Pv_lsq.Lsq.fast with Pv_lsq.Lsq.forwarding })
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
        let r = Pipeline.simulate compiled (Pipeline.prevv 16) in
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
        let r = Pipeline.simulate compiled (Pipeline.prevv 16) in
        (what, r.Pipeline.cycles))
      [ ("with slack buffers", true); ("without", false) ]
  in
  List.iter
    (fun (what, cycles) -> Printf.printf "  %-22s -> %d cycles\n" what cycles)
    bal_rows

(* ------------------------------------------------------------------ *)
(* Bound chain: differential harness across every registered scheme    *)
(* ------------------------------------------------------------------ *)

let bounds_section () =
  header
    "Bound chain — oracle <= prevv <= dynamatic <= serial (differential \
     harness over every registered backend)";
  List.iter
    (fun k -> Format.printf "%a@." Differential.pp (Differential.run k))
    (Pv_kernels.Defs.paper_benchmarks ())

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the simulator itself                   *)
(* ------------------------------------------------------------------ *)

let micro () =
  header "Bechamel micro-benchmarks (simulator and analysis throughput)";
  let open Bechamel in
  let kernel = Pv_kernels.Defs.histogram () in
  let compiled = Pipeline.compile kernel in
  let tests =
    Test.make_grouped ~name:"prevv"
      [
        Test.make ~name:"compile_histogram"
          (Staged.stage (fun () -> ignore (Pipeline.compile kernel)));
        Test.make ~name:"simulate_histogram_prevv16"
          (Staged.stage (fun () ->
               ignore (Pipeline.simulate compiled (Pipeline.prevv 16))));
        Test.make ~name:"simulate_histogram_lsq"
          (Staged.stage (fun () ->
               ignore (Pipeline.simulate compiled Pipeline.fast_lsq)));
        Test.make ~name:"elaborate_netlist"
          (Staged.stage (fun () ->
               ignore
                 (Pv_netlist.Elaborate.circuit compiled.Pipeline.graph
                    compiled.Pipeline.info.Pv_frontend.Depend.portmap
                    (Pv_netlist.Elaborate.D_prevv 16))));
        Test.make ~name:"analyse_gaussian"
          (Staged.stage (fun () ->
               ignore (Pv_frontend.Depend.analyse (Pv_kernels.Defs.gaussian ()))));
      ]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg instances tests in
  let results =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
      Toolkit.Instance.monotonic_clock raw
  in
  Hashtbl.iter
    (fun name ols ->
      match Analyze.OLS.estimates ols with
      | Some (t :: _) -> Printf.printf "  %-40s %14.1f ns/run\n" name t
      | _ -> Printf.printf "  %-40s (no estimate)\n" name)
    results

(* ------------------------------------------------------------------ *)
(* Chaos soak: the supervised service under load, kills and faults     *)
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
let run_soak ~jobs ~capacity ~kill_at requests =
  let cache = Parallel.Cache.in_memory () in
  let remaining = ref requests in
  let out = Buffer.create 4096 in
  let cfg =
    {
      Service.default_config with
      Service.jobs;
      Service.queue_capacity = capacity;
      Service.cache = Some cache;
      Service.kill_at;
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

(* Returns the BENCH_sim.json "soak" object.  The main phase uses an
   unoverflowable queue so the response stream is byte-comparable to the
   serial replay (shedding depends on queue dynamics); the burst phase
   then drives a tiny queue past capacity to exercise explicit
   load-shedding. *)
let soak ~jobs ~n () =
  header
    (Printf.sprintf
       "chaos soak — %d requests through the supervised service (--jobs %d, \
        one worker kill injected)"
       n jobs);
  (* the kill target gets a unique budget so it cannot dedupe against an
     in-flight twin: it must reach a worker as its own queue item *)
  let requests =
    List.mapi
      (fun i r ->
        if i = n / 3 then { r with Service.max_cycles = Some 777 } else r)
      (soak_requests n)
  in
  let kill_at = [ n / 3 ] in
  let sp, out_parallel = run_soak ~jobs ~capacity:(2 * n) ~kill_at requests in
  let ss, out_serial = run_soak ~jobs:1 ~capacity:(2 * n) ~kill_at:[] requests in
  let identical = String.equal out_parallel out_serial in
  Printf.printf
    "parallel: %.1f req/s, p50 %.3f ms, p95 %.3f ms, p99 %.3f ms, cache hit \
     rate %.3f, dedup %d, retries %d, kills %d, respawns %d, shed %d, lost: \
     %d\n"
    sp.Service.requests_per_s sp.Service.p50_ms sp.Service.p95_ms
    sp.Service.p99_ms (hit_rate sp) sp.Service.dedup_hits sp.Service.retries
    sp.Service.worker_kills sp.Service.respawns sp.Service.shed
    sp.Service.lost;
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
  let sb, _ = run_soak ~jobs ~capacity:4 ~kill_at:[] burst in
  Printf.printf "overload burst (queue=4): %d requests, shed %d, lost: %d\n"
    sb.Service.received sb.Service.shed sb.Service.lost;
  let ok =
    sp.Service.lost = 0 && ss.Service.lost = 0 && sb.Service.lost = 0
    && identical
  in
  if not ok then
    Printf.eprintf "SOAK FAILURE: lost=%d/%d/%d identical=%b\n" sp.Service.lost
      ss.Service.lost sb.Service.lost identical;
  let json =
    Printf.sprintf
      "{ \"requests\": %d, \"jobs_requested\": %d, \"jobs_effective\": %d, \
       \"wall_s\": %.6f, \"requests_per_s\": %.1f, \"p50_ms\": %.4f, \
       \"p95_ms\": %.4f, \"p99_ms\": %.4f, \"cache_hit_rate\": %.4f, \
       \"dedup_hits\": %d, \
       \"retries\": %d, \"worker_kills\": %d, \"respawns\": %d, \"shed\": %d, \
       \"lost\": %d, \"identical_to_serial_replay\": %b, \"overload\": { \
       \"requests\": %d, \"shed\": %d, \"lost\": %d } }"
      sp.Service.received jobs
      (Parallel.effective_jobs jobs)
      sp.Service.wall_s sp.Service.requests_per_s sp.Service.p50_ms
      sp.Service.p95_ms sp.Service.p99_ms (hit_rate sp) sp.Service.dedup_hits
      sp.Service.retries
      sp.Service.worker_kills sp.Service.respawns sp.Service.shed
      sp.Service.lost identical sb.Service.received sb.Service.shed
      sb.Service.lost
  in
  (json, ok)

(* ------------------------------------------------------------------ *)
(* --json: machine-readable simulator baselines (BENCH_sim.json)       *)
(* ------------------------------------------------------------------ *)

(* Per-kernel cycles, wall-clock time, throughput (cycles/s) and node
   evaluations for both simulator engines (scan = the simulator's dense
   full-pass regime pinned, event = the adaptive switch between it and
   the sparse sweep) across two activity regimes — the selected backend
   (default PreVV16, streaming: nearly every node busy every cycle, where
   the event engine runs dense and ties the scan) and the serializing
   bound (sparse: long memory stalls, where the sparse sweep skips most
   of the circuit) — plus each engine's
   steady-state minor-heap allocation per cycle over the allocation-free
   direct backend, the bound-chain curves of the differential harness
   (oracle / serial bracketing every ranked scheme), the serial-vs-parallel
   wall clock of the full Table I/II grid with the result-cache
   statistics, each grid cell's metric snapshot (Pv_obs.Metrics — cycles,
   fires, backend traffic, arbiter tallies), and the chaos-soak section
   (the supervised service under 10k requests, one injected worker kill
   and an overload burst), as a stable JSON document the CI archives and
   diffs against the committed baseline (schema prevv-bench-sim/v7; v7
   adds each kernel cell's arbiter_scan / pq_validate attribution shares
   from a profiled pass, the regression surface of the incremental
   arbiter-validation work). *)

let bench_json ~path ~jobs ~cache ~backend () =
  let module Sim = Pv_dataflow.Sim in
  let module Memif = Pv_dataflow.Memif in
  let dis = backend in
  let reps = 5 in
  let measure_pair compiled dis =
    (* interleaved best-of-N on the monotonic wall clock: scan and event
       alternate inside every rep so both engines sample the same
       allocator / frequency / cache state, and the ratio is not polluted
       by drift between two back-to-back measurement blocks *)
    let run engine =
      let sim_cfg = { Sim.default_config with Sim.engine } in
      let t0 = now_s () in
      let r = Pipeline.simulate ~sim_cfg compiled dis in
      (r, now_s () -. t0)
    in
    let best_s = ref infinity and best_e = ref infinity in
    let scan = ref None and event = ref None in
    for _ = 1 to reps do
      let r, dt = run Sim.Scan in
      if dt < !best_s then best_s := dt;
      scan := Some r;
      let r, dt = run Sim.Event in
      if dt < !best_e then best_e := dt;
      event := Some r
    done;
    ((Option.get !scan, !best_s), (Option.get !event, !best_e))
  in
  let allocs_per_cycle compiled engine =
    (* steady-state minor words per cycle over the allocation-free direct
       backend, so the slope isolates the simulator core; two windows of
       different length cancel the probes' own constant boxing overhead
       (same technique as test_sim_perf) *)
    let mem =
      Pv_memory.Layout.initial_memory compiled.Pipeline.layout
        compiled.Pipeline.kernel ~init:[]
    in
    let sim =
      Sim.create
        ~cfg:{ Sim.default_config with Sim.engine }
        compiled.Pipeline.graph
        (Memif.direct ~latency:2 mem)
    in
    let window n =
      let w0 = Gc.minor_words () in
      for _ = 1 to n do
        Sim.step sim
      done;
      Gc.minor_words () -. w0
    in
    for _ = 1 to 200 do
      Sim.step sim
    done;
    let d_short = window 300 in
    let d_long = window 1000 in
    (d_long -. d_short) /. 700.0
  in
  (* the two activity regimes; when serial itself is selected there is
     only one *)
  let regimes =
    if Pv_core.Scheme.to_string dis = Pv_core.Scheme.to_string Pv_core.Scheme.serial
    then [ dis ]
    else [ dis; Pv_core.Scheme.serial ]
  in
  header
    (Printf.sprintf "engine baselines (scan vs event; regimes: %s)"
       (String.concat ", " (List.map Pv_core.Scheme.to_string regimes)));
  Printf.printf "%-14s %-10s | %10s %9s | %10s %9s | %6s %6s %5s\n" "kernel"
    "backend" "scan ev" "time(s)" "event ev" "time(s)" "evr" "tr" "equiv";
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"schema\": \"prevv-bench-sim/v7\",\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"backend\": %S,\n" (Pv_core.Scheme.to_string dis));
  Buffer.add_string buf
    (Printf.sprintf "  \"regime_backends\": [ %s ],\n"
       (String.concat ", "
          (List.map
             (fun d -> Printf.sprintf "%S" (Pv_core.Scheme.to_string d))
             regimes)));
  Buffer.add_string buf
    (Printf.sprintf "  \"default_engine\": %S,\n"
       (Sim.string_of_engine Sim.default_config.Sim.engine));
  Buffer.add_string buf (Printf.sprintf "  \"jobs\": %d,\n" jobs);
  Buffer.add_string buf "  \"kernels\": [\n";
  let eval_ratios = ref [] and time_ratios = ref [] in
  let time_ratios_by_backend =
    List.map (fun d -> (Pv_core.Scheme.to_string d, ref [])) regimes
  in
  let kernels = Pv_kernels.Defs.paper_benchmarks () in
  let n_kernels = List.length kernels in
  let n_regimes = List.length regimes in
  List.iteri
    (fun i kernel ->
      let name = kernel.Pv_kernels.Ast.name in
      let compiled = Pipeline.compile kernel in
      let alloc_scan = allocs_per_cycle compiled Sim.Scan in
      let alloc_event = allocs_per_cycle compiled Sim.Event in
      (* attribution shares of the disambiguation hot loops under the
         selected backend, from one profiled pass (the gate for the
         incremental-validation / CAM-view regression surface) *)
      let arb_share, pqv_share =
        let prof = Pv_obs.Prof.create () in
        ignore (Pipeline.simulate ~prof compiled dis);
        let tot = float_of_int (max (Pv_obs.Prof.total prof) 1) in
        let ph = Pv_obs.Prof.phase_totals prof in
        ( float_of_int ph.(Pv_obs.Prof.phase_arbiter_scan) /. tot,
          float_of_int ph.(Pv_obs.Prof.phase_pq_validate) /. tot )
      in
      let kernel_time_ratios = ref [] in
      let cells =
        List.mapi
          (fun j regime ->
            let bname = Pv_core.Scheme.to_string regime in
            let (scan, scan_t), (event, event_t) =
              measure_pair compiled regime
            in
            let epc (r : Pipeline.result) =
              float_of_int r.Pipeline.run_stats.Sim.evals
              /. float_of_int (max r.Pipeline.cycles 1)
            in
            let side (r : Pipeline.result) dt =
              Printf.sprintf
                "{ \"cycles\": %d, \"time_s\": %.6f, \"cycles_per_s\": %.0f, \
                 \"evals\": %d, \"evals_per_cycle\": %.3f }"
                r.Pipeline.cycles dt
                (float_of_int r.Pipeline.cycles /. max dt epsilon_float)
                r.Pipeline.run_stats.Sim.evals (epc r)
            in
            let equivalent =
              scan.Pipeline.cycles = event.Pipeline.cycles
              && scan.Pipeline.run_stats.Sim.node_fires
                 = event.Pipeline.run_stats.Sim.node_fires
              && scan.Pipeline.mem = event.Pipeline.mem
            in
            let eval_ratio =
              float_of_int event.Pipeline.run_stats.Sim.evals
              /. float_of_int (max scan.Pipeline.run_stats.Sim.evals 1)
            in
            let time_ratio = event_t /. max scan_t epsilon_float in
            eval_ratios := eval_ratio :: !eval_ratios;
            time_ratios := time_ratio :: !time_ratios;
            kernel_time_ratios := time_ratio :: !kernel_time_ratios;
            (List.assoc bname time_ratios_by_backend)
            := time_ratio :: !(List.assoc bname time_ratios_by_backend);
            Printf.printf
              "%-14s %-10s | %10d %9.4f | %10d %9.4f | %6.3f %6.3f %5b\n"
              (if j = 0 then name else "") bname
              scan.Pipeline.run_stats.Sim.evals scan_t
              event.Pipeline.run_stats.Sim.evals event_t eval_ratio time_ratio
              equivalent;
            Printf.sprintf
              "        { \"backend\": %S,\n\
              \          \"scan\": %s,\n\
              \          \"event\": %s,\n\
              \          \"equivalent\": %b,\n\
              \          \"event_eval_ratio\": %.4f,\n\
              \          \"event_time_ratio\": %.4f }%s"
              bname (side scan scan_t) (side event event_t) equivalent
              eval_ratio time_ratio
              (if j = n_regimes - 1 then "" else ","))
          regimes
      in
      Buffer.add_string buf
        (Printf.sprintf
           "    { \"kernel\": %S,\n\
           \      \"allocs_per_cycle\": { \"scan\": %.4f, \"event\": %.4f },\n\
           \      \"arbiter_scan_share\": %.4f,\n\
           \      \"pq_validate_share\": %.4f,\n\
           \      \"event_time_ratio\": %.4f,\n\
           \      \"regimes\": [\n%s\n      ] }%s\n"
           name alloc_scan alloc_event arb_share pqv_share
           (Experiment.geomean !kernel_time_ratios)
           (String.concat "\n" cells)
           (if i = n_kernels - 1 then "" else ",")))
    kernels;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"geomean_event_eval_ratio\": %.4f,\n"
       (Experiment.geomean !eval_ratios));
  Buffer.add_string buf
    (Printf.sprintf "  \"geomean_event_time_ratio\": %.4f,\n"
       (Experiment.geomean !time_ratios));
  Buffer.add_string buf
    (Printf.sprintf "  \"geomean_event_time_ratio_by_backend\": { %s },\n"
       (String.concat ", "
          (List.map
             (fun (bname, rs) ->
               Printf.sprintf "%S: %.4f" bname (Experiment.geomean !rs))
             time_ratios_by_backend)));
  (* bound curves: every registered scheme on every paper kernel, with the
     differential harness's agreement and ordering verdicts — the data
     behind the oracle/serial bracketing of Table II *)
  header "bound chain (oracle <= prevv <= dynamatic <= serial)";
  let reports =
    List.map (fun k -> Differential.run k) (Pv_kernels.Defs.paper_benchmarks ())
  in
  List.iter (fun r -> Format.printf "%a@." Differential.pp r) reports;
  let n_reports = List.length reports in
  Buffer.add_string buf "  \"bounds\": [\n";
  List.iteri
    (fun i (r : Differential.report) ->
      let schemes =
        String.concat ", "
          (List.map
             (fun (row : Differential.row) ->
               Printf.sprintf
                 "{ \"scheme\": %S, \"cycles\": %d, \"finished\": %b, \
                  \"verified\": %b }"
                 row.Differential.scheme row.Differential.cycles
                 row.Differential.finished row.Differential.verified)
             r.Differential.rows)
      in
      Buffer.add_string buf
        (Printf.sprintf
           "    { \"kernel\": %S, \"agree\": %b, \"ordering_ok\": %b, \
            \"schemes\": [ %s ] }%s\n"
           r.Differential.kernel r.Differential.agree
           r.Differential.ordering_ok schemes
           (if i = n_reports - 1 then "" else ",")))
    reports;
  Buffer.add_string buf "  ],\n";
  (* the full Table I/II grid: serial vs parallel wall clock (both
     cache-cold so the comparison is compute vs compute), then a cached
     pass whose hit count a second invocation raises to the full grid *)
  header "table1+table2 grid: serial vs parallel wall clock";
  let t0 = now_s () in
  let serial_grid = Experiment.paper_grid () in
  let wall_serial = now_s () -. t0 in
  let t0 = now_s () in
  let parallel_grid = Experiment.paper_grid ~jobs () in
  let wall_parallel = now_s () -. t0 in
  let identical = serial_grid = parallel_grid in
  let n_points = List.length (List.concat serial_grid) in
  let cached_wall, hits, misses, cache_consistent =
    match cache with
    | None -> (0.0, 0, 0, true)
    | Some cache ->
        Parallel.Cache.reset_stats cache;
        let t0 = now_s () in
        let cached_grid = Experiment.paper_grid ~cache ~jobs () in
        ( now_s () -. t0,
          Parallel.Cache.hits cache,
          Parallel.Cache.misses cache,
          cached_grid = serial_grid )
  in
  Printf.printf
    "%d points: serial %.3fs, parallel (%d jobs requested, %d effective) \
     %.3fs, speedup %.2fx, identical %b\n"
    n_points wall_serial jobs
    (Parallel.effective_jobs jobs)
    wall_parallel
    (wall_serial /. max wall_parallel epsilon_float)
    identical;
  (* an explicit request within [1, max_jobs] must be honoured exactly;
     silent divergence is the clamp bug this harness exists to catch *)
  let jobs_diverged =
    jobs <= Parallel.max_jobs && Parallel.effective_jobs jobs <> jobs
  in
  if jobs_diverged then
    Printf.eprintf
      "WARNING: jobs_effective %d diverged from jobs_requested %d\n"
      (Parallel.effective_jobs jobs)
      jobs;
  if cache <> None then
    Printf.printf "cached pass: %.3fs, %d hits / %d misses, consistent %b\n"
      cached_wall hits misses cache_consistent;
  (* per-cell metric snapshots: deterministic (engine- and jobs-invariant),
     so CI can diff this section across runs and machines *)
  let flat = List.concat serial_grid in
  let n_flat = List.length flat in
  Buffer.add_string buf "  \"grid_cells\": [\n";
  List.iteri
    (fun i (p : Experiment.point) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    { \"kernel\": %S, \"config\": %S, \"metrics\": %s }%s\n"
           p.Experiment.kernel p.Experiment.config
           (Pv_obs.Json.to_string
              (Pv_obs.Metrics.snapshot_to_json p.Experiment.metrics))
           (if i = n_flat - 1 then "" else ",")))
    flat;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"grid\": { \"points\": %d, \"jobs\": %d, \"jobs_requested\": %d, \
        \"jobs_effective\": %d, \
        \"wall_s_serial\": %.6f, \"wall_s_parallel\": %.6f, \
        \"parallel_speedup\": %.3f, \"identical_to_serial\": %b, \
        \"cache_hits\": %d, \"cache_misses\": %d, \"cache_consistent\": %b, \
        \"wall_s_cached\": %.6f },\n"
       n_points jobs jobs
       (Parallel.effective_jobs jobs)
       wall_serial wall_parallel
       (wall_serial /. max wall_parallel epsilon_float)
       identical hits misses cache_consistent cached_wall);
  let soak_json, soak_ok = soak ~jobs ~n:10_000 () in
  Buffer.add_string buf (Printf.sprintf "  \"soak\": %s\n" soak_json);
  Buffer.add_string buf "}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "geomean eval ratio %.3f, geomean time ratio %.3f -> wrote %s\n"
    (Experiment.geomean !eval_ratios)
    (Experiment.geomean !time_ratios)
    path;
  if jobs_diverged || not soak_ok then exit 1

(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: main.exe [--jobs N] [--cache|--no-cache] [--backend NAME] \
     [--json [PATH]] [SECTION...]";
  exit 2

let () =
  (* hand-rolled flag parsing: sections and flags may be interleaved *)
  let args =
    match Array.to_list Sys.argv with _ :: rest -> rest | [] -> []
  in
  let jobs = ref 1 in
  let json = ref None in
  let cache_flag = ref None in
  let backend = ref (Pipeline.prevv 16) in
  let sections = ref [] in
  let rec parse = function
    | [] -> ()
    | "--jobs" :: n :: rest -> (
        match int_of_string_opt n with
        | Some n when n >= 1 ->
            jobs := n;
            parse rest
        | _ -> usage ())
    | [ "--jobs" ] -> usage ()
    | "--backend" :: b :: rest -> (
        (* one parser with the CLI: the scheme registry *)
        match Pv_core.Scheme.of_string b with
        | Ok d ->
            backend := d;
            parse rest
        | Error e ->
            prerr_endline e;
            usage ())
    | [ "--backend" ] -> usage ()
    | "--cache" :: rest ->
        cache_flag := Some true;
        parse rest
    | "--no-cache" :: rest ->
        cache_flag := Some false;
        parse rest
    | "--json" :: p :: rest when String.length p > 0 && p.[0] <> '-' ->
        json := Some p;
        parse rest
    | "--json" :: rest ->
        json := Some "BENCH_sim.json";
        parse rest
    | s :: _ when String.length s > 0 && s.[0] = '-' ->
        Printf.eprintf "unknown flag %S\n" s;
        usage ()
    | s :: rest ->
        sections := s :: !sections;
        parse rest
  in
  parse args;
  let jobs = !jobs in
  (* the result cache defaults on for --json (so a second invocation
     reports hits) and off for tables (so CI's serial-vs-parallel diff
     compares real computations) *)
  let cache_on =
    match !cache_flag with Some b -> b | None -> !json <> None
  in
  let cache =
    if cache_on then
      Some (Parallel.Cache.on_disk ~dir:(Parallel.Cache.default_dir ()) ())
    else None
  in
  match !json with
  | Some path -> bench_json ~path ~jobs ~cache ~backend:!backend ()
  | None ->
      let requested =
        match List.rev !sections with
        | _ :: _ as l -> l
        | [] ->
            [
              "fig1"; "table1"; "table2"; "fig7"; "queue_states"; "deadlock";
              "depth_sweep"; "scalability"; "ablation"; "bounds"; "micro";
            ]
      in
      (* one shared grid for the grid-based sections, computed across the
         worker pool on first use *)
      let grid = lazy (Experiment.paper_grid ?cache ~jobs ()) in
      List.iter
        (fun name ->
          match name with
          | "fig1" -> fig1 ~grid ()
          | "table1" -> table1 ~grid ()
          | "table2" -> table2 ~grid ()
          | "fig7" -> fig7 ~grid ()
          | "queue_states" -> queue_states ()
          | "deadlock" -> deadlock ()
          | "depth_sweep" -> depth_sweep ~jobs ~cache ()
          | "scalability" -> scalability ()
          | "ablation" -> ablation ~jobs ()
          | "bounds" -> bounds_section ()
          | "micro" -> micro ()
          | "soak" ->
              let _, ok = soak ~jobs ~n:10_000 () in
              if not ok then exit 1
          | s -> Printf.eprintf "unknown section %S\n" s)
        requested
