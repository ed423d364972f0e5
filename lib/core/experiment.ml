(** One evaluation point: a kernel under a disambiguation scheme, with
    cycle count (simulated), area and clock period (modelled), and
    execution time — one cell group of Tables I and II. *)

type point = {
  kernel : string;
  config : string;
  cycles : int;
  report : Pv_resource.Report.t;
  exec_us : float;
  mem_stats : Pv_dataflow.Memif.stats;
  verified : bool;  (** final memory matched the reference interpreter *)
  metrics : Pv_obs.Metrics.snapshot;
      (** per-run metric snapshot (cycles, fires, backend traffic, arbiter
          tallies — see [Pipeline.simulate]).  Deterministic: identical
          across engines and worker counts, and marshal-safe so it rides
          the result cache. *)
}

(** Run one (kernel, scheme) point: compile (unless [compiled] is given),
    simulate, verify, elaborate. *)
let run ?sim_cfg ?init ?compiled (kernel : Pv_kernels.Ast.kernel)
    (dis : Pipeline.disambiguation) : point =
  let compiled =
    match compiled with Some c -> c | None -> Pipeline.compile kernel
  in
  let m = Pv_obs.Metrics.create () in
  let result = Pipeline.simulate ?sim_cfg ?init ~metrics:m compiled dis in
  let verified =
    match result.Pipeline.outcome with
    | Pv_dataflow.Sim.Finished _ -> Pipeline.verify ?init compiled result = []
    | _ -> false
  in
  let report =
    Pv_resource.Report.of_circuit compiled.Pipeline.graph
      compiled.Pipeline.info.Pv_frontend.Depend.portmap
      (Scheme.elaboration_of dis)
  in
  {
    kernel = kernel.Pv_kernels.Ast.name;
    config = Scheme.to_string dis;
    cycles = result.Pipeline.cycles;
    report;
    exec_us =
      Pv_resource.Timing.exec_time_us ~cycles:result.Pipeline.cycles
        ~cp_ns:report.Pv_resource.Report.cp_ns;
    mem_stats = result.Pipeline.mem_stats;
    verified;
    metrics = Pv_obs.Metrics.snapshot m;
  }

(* ------------------------------------------------------------------ *)
(* Result caching                                                      *)
(* ------------------------------------------------------------------ *)

(** Content address of one evaluation point: a digest over everything that
    determines the result — kernel AST, input data, the full scheme
    configuration, and the simulator configuration (engine, budgets, fault
    plan).  Wall-clock timing is never part of a [point], so cached
    results are exact.  The salt names the schema: bump it whenever
    [point] or any constituent record changes shape. *)
let cache_key ?(sim_cfg = Pv_dataflow.Sim.default_config) ?init
    (kernel : Pv_kernels.Ast.kernel) (dis : Pipeline.disambiguation) : string =
  let module Sim = Pv_dataflow.Sim in
  let init =
    match init with
    | Some i -> i
    | None -> Pv_kernels.Workload.default_init kernel
  in
  (* the scheme's own fingerprint covers its full configuration; the name
     keys distinct families whose configs could collide byte-wise *)
  let dis_repr = (Scheme.to_string dis, Scheme.fingerprint_of dis) in
  let sim_repr =
    ( Sim.string_of_engine sim_cfg.Sim.engine,
      sim_cfg.Sim.max_cycles,
      sim_cfg.Sim.stall_limit,
      Marshal.to_string sim_cfg.Sim.faults [] )
  in
  Digest.to_hex
    (Digest.string
       (Marshal.to_string ("prevv-expt/v4", kernel, init, dis_repr, sim_repr) []))

(** {!run} through a {!Parallel.Cache}: a hit returns the stored point
    without compiling or simulating anything. *)
let run_cached ?sim_cfg ?init ?compiled ~cache kernel dis :
    point * [ `Hit | `Miss ] =
  let key = cache_key ?sim_cfg ?init kernel dis in
  Parallel.Cache.memo cache ~key (fun () ->
      run ?sim_cfg ?init ?compiled kernel dis)

(* ------------------------------------------------------------------ *)
(* Sweep driver                                                        *)
(* ------------------------------------------------------------------ *)

let cell_label (kernel, dis) =
  kernel.Pv_kernels.Ast.name ^ "/" ^ Scheme.to_string dis

(** Fan a list of (kernel, scheme) cells across [jobs] worker domains
    (serially for [jobs <= 1]), in cell order.  Each cell runs under
    {!Supervisor.retry} with its attempt's token wired into the
    simulator's [cancel] hook; the token never enters {!cache_key}, so
    every sweep shares cache entries.  Infeasible configurations come
    back as a {!Supervisor.task_error} after one attempt instead of
    aborting the whole sweep.  Workers only compute; any printing
    belongs to the caller, after the sweep.

    [metrics] (optional) aggregates the sweep: every point's own snapshot
    is absorbed (deterministic), plus [runner.*] telemetry — point/error
    counts and a cycles histogram (deterministic), and the workers used,
    their load histogram, cache-hit deltas, retries, task errors and
    deadline hits (runtime-dependent by nature; strip the [runner.]
    prefix when comparing runs). *)
let sweep ?(policy = Supervisor.default_policy) ?sim_cfg ?cache ?metrics
    ?(jobs = 1) cells : (point, Supervisor.task_error) result list =
  let hits0, misses0 =
    match cache with
    | Some c -> (Parallel.Cache.hits c, Parallel.Cache.misses c)
    | None -> (0, 0)
  in
  let module Sim = Pv_dataflow.Sim in
  let base = Option.value sim_cfg ~default:Sim.default_config in
  let task ((kernel, dis) as cell) =
    Supervisor.retry policy ~label:(cell_label cell) (fun ~token ->
        let cancel () =
          base.Sim.cancel () || Supervisor.Token.cancelled token
        in
        let sim_cfg = { base with Sim.cancel } in
        match cache with
        | None -> run ~sim_cfg kernel dis
        | Some cache -> fst (run_cached ~sim_cfg ~cache kernel dis))
  in
  (* same execution shape as Parallel.map, but over an explicit pool so
     the per-worker tallies survive for the telemetry below *)
  let n = min (Parallel.effective_jobs jobs) (List.length cells) in
  let outcomes, workers =
    if n <= 1 then (List.map task cells, [ List.length cells ])
    else begin
      let pool = Parallel.create ~jobs:n in
      let rs =
        Fun.protect
          ~finally:(fun () -> Parallel.shutdown pool)
          (fun () -> Parallel.map_pool pool task cells)
      in
      (rs, Parallel.worker_jobs pool)
    end
  in
  (match metrics with
  | None -> ()
  | Some m ->
      let module M = Pv_obs.Metrics in
      List.iter
        (fun (result, (tally : Supervisor.tally)) ->
          (match result with
          | Ok p ->
              M.incr m "runner.points";
              M.observe m "runner.point_cycles" p.cycles;
              M.absorb m p.metrics
          | Error _ ->
              M.incr m "runner.errors";
              M.incr m "runner.task_errors");
          M.add m "runner.retries" tally.retries;
          M.add m "runner.deadline_hits" tally.deadline_hits)
        outcomes;
      M.set_gauge_max m "runner.jobs_effective" (max 1 n);
      List.iter (fun n -> M.observe m "runner.worker_jobs" n) workers;
      (match cache with
      | Some c ->
          M.add m "runner.cache_hits" (Parallel.Cache.hits c - hits0);
          M.add m "runner.cache_misses" (Parallel.Cache.misses c - misses0)
      | None -> ()));
  List.map fst outcomes

(** The paper's four evaluated configurations, in table-column order. *)
let paper_configs () =
  [ Scheme.plain_lsq; Scheme.fast_lsq; Scheme.prevv 16; Scheme.prevv 64 ]

let paper_points kernel =
  let compiled = Pipeline.compile kernel in
  List.map (fun dis -> run ~compiled kernel dis) (paper_configs ())

(* regroup a flat cell list into rows of [width] per kernel *)
let regroup width points =
  let rec rows = function
    | [] -> []
    | points ->
        let rec split n acc rest =
          if n = 0 then (List.rev acc, rest)
          else
            match rest with
            | [] -> invalid_arg "paper_grid: ragged grid"
            | p :: rest -> split (n - 1) (p :: acc) rest
        in
        let row, rest = split width [] points in
        row :: rows rest
  in
  rows points

(** Run the full grid for the paper's five kernels (Tables I & II),
    optionally across [jobs] domains and through a result cache.  The
    returned rows are identical whatever the worker count: every point is
    deterministic and is computed from private state. *)
let paper_grid ?sim_cfg ?cache ?(jobs = 1) () : point list list =
  let configs = paper_configs () in
  let cells =
    List.concat_map
      (fun k -> List.map (fun d -> (k, d)) configs)
      (Pv_kernels.Defs.paper_benchmarks ())
  in
  sweep ?sim_cfg ?cache ~jobs cells
  |> List.map (function
       | Ok p -> p
       | Error e ->
           failwith (Format.asprintf "paper_grid: %a" Supervisor.pp_task_error e))
  |> regroup (List.length configs)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

(** Deterministic JSON rendering of a point (no timing fields beyond the
    modelled [exec_us], which is a pure function of cycles and CP): the
    byte-identity surface for the parallel-vs-serial determinism harness
    and the bench/CLI JSON outputs. *)
let point_to_json (p : point) : string =
  let r = p.report in
  Printf.sprintf
    "{ \"kernel\": %S, \"config\": %S, \"cycles\": %d, \"luts\": %d, \
     \"ffs\": %d, \"cp_ns\": %.4f, \"exec_us\": %.4f, \"queue_luts\": %d, \
     \"queue_ffs\": %d, \"squashes\": %d, \"stall_full\": %d, \
     \"verified\": %b }"
    p.kernel p.config p.cycles r.Pv_resource.Report.luts
    r.Pv_resource.Report.ffs r.Pv_resource.Report.cp_ns p.exec_us
    r.Pv_resource.Report.queue_luts r.Pv_resource.Report.queue_ffs
    p.mem_stats.Pv_dataflow.Memif.squashes
    p.mem_stats.Pv_dataflow.Memif.stall_full p.verified

let pct a b = 100.0 *. (float_of_int a /. float_of_int b -. 1.0)
let pctf a b = 100.0 *. ((a /. b) -. 1.0)

let geomean ratios =
  exp (List.fold_left (fun acc r -> acc +. log r) 0.0 ratios
       /. float_of_int (List.length ratios))
