(* prevv — command-line front end to the PreVV reproduction.

   Subcommands:
     list                      kernels available
     backends                  registered disambiguation backends
     show KERNEL               print a kernel and its dependence analysis
     run KERNEL [-b BACKEND]   simulate and verify; optionally trace,
                               profile and record metrics of the run
     bounds [KERNEL...]        differential harness: agreement + bound chain
     report KERNEL             area/timing across all schemes
     sweep [KERNEL...] [-j N]  domain-parallel kernel x scheme grid
     emit KERNEL [-b BACKEND]  write the structural netlist
     dot KERNEL                write the dataflow graph (Graphviz)
     vcd KERNEL                simulate writing a VCD waveform
     util KERNEL               device utilisation per scheme
     area KERNEL               hierarchical area breakdown
     serve                     LDJSON experiment requests on stdin *)

open Cmdliner
open Pv_core

let kernel_conv =
  (* a bundled kernel name, or a path to a kernel source file *)
  let parse s =
    match Pv_kernels.Defs.by_name s with
    | k -> Ok k
    | exception Invalid_argument _ ->
        if Sys.file_exists s then
          match Pv_kernels.Parse.from_file s with
          | Ok k -> Ok k
          | Error e -> Error (`Msg (Format.asprintf "%a" Pv_kernels.Parse.pp_error e))
        else
          Error
            (`Msg
               (Printf.sprintf
                  "%S is neither a bundled kernel (see `prevv list') nor a file"
                  s))
  in
  Arg.conv (parse, fun ppf k -> Format.pp_print_string ppf k.Pv_kernels.Ast.name)

let kernel_arg =
  let doc = "Kernel name (see `prevv list')." in
  Arg.(required & pos 0 (some kernel_conv) None & info [] ~docv:"KERNEL" ~doc)

(* one parser for backend names, shared with the serve protocol: the registry *)
let backend_conv =
  Arg.conv
    ( (fun s ->
        match Scheme.of_string s with
        | Ok d -> Ok d
        | Error e -> Error (`Msg e)),
      fun ppf d -> Format.pp_print_string ppf (Scheme.to_string d) )

let backend_arg =
  let doc =
    "Disambiguation backend, by registry name (see `prevv backends'): \
     $(b,dynamatic), $(b,fast-lsq), $(b,prevv<DEPTH>), $(b,oracle), \
     $(b,serial)."
  in
  Arg.(
    value
    & opt backend_conv (Scheme.prevv 16)
    & info [ "b"; "backend" ] ~docv:"BACKEND" ~doc)

let cse_arg =
  Arg.(value & flag & info [ "cse" ] ~doc:"Deduplicate repeated loads per leaf.")

let fold_arg =
  Arg.(value & flag & info [ "fold" ] ~doc:"Constant-fold the kernel first.")

(* --- list ----------------------------------------------------------------- *)

let list_cmd =
  let run () =
    List.iter
      (fun k ->
        let info = Pv_frontend.Depend.analyse k in
        Printf.printf "%-18s %d leaf stmt(s), %d port(s), %d ambiguous array(s)\n"
          k.Pv_kernels.Ast.name
          (List.length info.Pv_frontend.Depend.leaves)
          (Array.length info.Pv_frontend.Depend.portmap.Pv_memory.Portmap.ports)
          info.Pv_frontend.Depend.portmap.Pv_memory.Portmap.n_instances)
      (Pv_kernels.Defs.all ())
  in
  Cmd.v (Cmd.info "list" ~doc:"List the bundled kernels.")
    Term.(const run $ const ())

(* --- backends -------------------------------------------------------------- *)

let backends_cmd =
  let md_arg =
    Arg.(
      value & flag
      & info [ "md" ]
          ~doc:"Emit a Markdown table (the README's backend table).")
  in
  let run md =
    let schemes = Scheme.all () in
    if md then begin
      print_endline "| backend | description |";
      print_endline "|---|---|";
      List.iter
        (fun (module M : Scheme.S) ->
          Printf.printf "| `%s` | %s |\n" M.name M.description)
        schemes
    end
    else begin
      List.iter
        (fun (module M : Scheme.S) ->
          Printf.printf "%-10s %s\n" M.name M.description)
        schemes;
      Printf.printf
        "\nfamilies: %s\n"
        (String.concat ", "
           (List.map (fun f -> f.Scheme.f_name) (Scheme.families ())))
    end
  in
  Cmd.v
    (Cmd.info "backends"
       ~doc:
         "List the registered disambiguation backends (the names accepted \
          by $(b,--backend)).")
    Term.(const run $ md_arg)

(* --- bounds ----------------------------------------------------------------- *)

let bounds_cmd =
  let kernels_arg =
    let doc =
      "Kernels to check (default: the paper's five benchmarks)."
    in
    Arg.(value & pos_all kernel_conv [] & info [] ~docv:"KERNEL" ~doc)
  in
  let run kernels =
    let kernels =
      match kernels with
      | [] -> Pv_kernels.Defs.paper_benchmarks ()
      | ks -> ks
    in
    let reports = List.map (fun k -> Differential.run k) kernels in
    List.iter (fun r -> Format.printf "%a@." Differential.pp r) reports;
    let bad = List.filter (fun r -> not (Differential.ok r)) reports in
    if bad = [] then begin
      Format.printf
        "bound chain oracle <= prevv <= dynamatic <= serial holds on %d \
         kernel(s)@."
        (List.length reports);
      `Ok ()
    end
    else
      `Error
        ( false,
          Printf.sprintf "differential harness failed on: %s"
            (String.concat ", "
               (List.map (fun r -> r.Differential.kernel) bad)) )
  in
  Cmd.v
    (Cmd.info "bounds"
       ~doc:
         "Differential harness: run every registered backend on each \
          kernel, require agreement on outcome and final memory, and check \
          the cycle bound chain oracle <= prevv <= dynamatic <= serial.  \
          Non-zero exit on any violation.")
    Term.(ret (const run $ kernels_arg))

(* --- show ----------------------------------------------------------------- *)

let show_cmd =
  let run kernel =
    Format.printf "%a@.@." Pv_kernels.Ast.pp_kernel kernel;
    let info = Pv_frontend.Depend.analyse kernel in
    Format.printf "%a@." Pv_memory.Portmap.pp info.Pv_frontend.Depend.portmap;
    Format.printf "ambiguous pairs before dimension reduction (Def. 1): %d@."
      (Pv_frontend.Depend.naive_pair_count info)
  in
  Cmd.v
    (Cmd.info "show" ~doc:"Print a kernel and its dependence analysis.")
    Term.(const run $ kernel_arg)

(* --- run ------------------------------------------------------------------ *)

let inject_arg =
  let plan_conv =
    Arg.conv
      ( (fun s ->
          match Pv_dataflow.Fault.parse s with
          | Ok p -> Ok p
          | Error e -> Error (`Msg e)),
        Pv_dataflow.Fault.pp_plan )
  in
  let doc =
    "Fault-injection plan: comma-separated CYCLE:KIND:ARGS events, e.g. \
     $(b,40:drop-replay:c3,100:stall:c7:64,200:squash:i5).  Kinds: drop, \
     drop-replay, stall, flip, flip-replay, squash, pqflip, pqdrop.  The \
     *-replay kinds (and squash, and pqflip with detect) model detected \
     faults and must still verify; silent kinds may end in a diagnosed \
     deadlock."
  in
  Arg.(value & opt (some plan_conv) None & info [ "inject" ] ~docv:"PLAN" ~doc)

let fault_seed_arg =
  let doc =
    "Inject a random plan of detected (recoverable) faults derived \
     deterministically from this seed."
  in
  Arg.(value & opt (some int) None & info [ "fault-seed" ] ~docv:"SEED" ~doc)

let engine_arg =
  let doc =
    "Simulator engine: $(b,event) (activity-driven wake set, the default) \
     or $(b,scan) (evaluate every node every cycle).  The engines are \
     cycle-equivalent; scan is the reference implementation."
  in
  Arg.(
    value
    & opt
        (enum
           [ ("event", Pv_dataflow.Sim.Event); ("scan", Pv_dataflow.Sim.Scan) ])
        Pv_dataflow.Sim.default_config.Pv_dataflow.Sim.engine
    & info [ "engine" ] ~docv:"ENGINE" ~doc)

(* [stream] names where the command prints the snapshot *)
let metrics_arg stream =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          ("Print the run's metric snapshot (counters, gauges, histograms) \
            as a JSON object on " ^ stream ^ "."))

let print_metrics m =
  print_endline (Pv_obs.Json.to_string (Pv_obs.Metrics.to_json m))

let run_cmd =
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record a Chrome trace of the run to $(docv): epoch spans, squash \
             and validation instants, occupancy counter tracks.  Open it in \
             Perfetto (ui.perfetto.dev) or chrome://tracing; timestamps are \
             cycles (1 cycle = 1 us).")
  in
  let max_cycles_arg =
    Arg.(
      value
      & opt int Pv_dataflow.Sim.default_config.Pv_dataflow.Sim.max_cycles
      & info [ "max-cycles" ] ~docv:"N" ~doc:"Simulation cycle budget.")
  in
  let profile_arg =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "Run under the cycle-attribution profiler and report where the \
             work goes: the per-phase budget (circuit sweep, arbiter scan, \
             value validation, LSQ CAM, memory service), the top-N hot nodes \
             with stall breakdowns, the most backpressured channels, the \
             least utilised components and the initiation interval.")
  in
  let top_arg =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"N" ~doc:"Rows per $(b,--profile) table.")
  in
  let folded_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "folded" ] ~docv:"FILE"
          ~doc:
            "Profile the run and write its folded-stack lines to $(docv) \
             (flamegraph.pl / speedscope input).")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Keep stdout JSON only: the $(b,--profile) object, then the \
             $(b,--metrics) snapshot, one per line.  The run summary goes to \
             stderr.")
  in
  let run kernel dis cse fold inject fault_seed engine metrics trace max_cycles
      profile top folded json =
    let kernel =
      if fold then Pv_frontend.Optimize.constant_fold kernel else kernel
    in
    let name = kernel.Pv_kernels.Ast.name in
    let options = { Pv_frontend.Build.default_options with Pv_frontend.Build.cse } in
    let summary = if json then Format.err_formatter else Format.std_formatter in
    let m = if metrics then Some (Pv_obs.Metrics.create ()) else None in
    let tr = Option.map (fun path -> (path, Pv_obs.Trace.create ())) trace in
    let prof =
      if profile || folded <> None then Some (Pv_obs.Prof.create ()) else None
    in
    match
      let compiled = Pipeline.compile ~options kernel in
      let faults =
        Option.value ~default:[] inject
        @ Option.fold ~none:[]
            ~some:(fun seed -> Pipeline.seeded_faults compiled ~seed)
            fault_seed
      in
      if faults <> [] then
        Format.fprintf summary "@[<hov 2>injecting: %a@]@."
          Pv_dataflow.Fault.pp_plan faults;
      let sim_cfg =
        { Pv_dataflow.Sim.default_config with
          Pv_dataflow.Sim.faults; engine; max_cycles }
      in
      ( compiled,
        Pipeline.simulate ~sim_cfg ?obs_trace:(Option.map snd tr) ?prof
          ?metrics:m compiled dis )
    with
    | exception Invalid_argument e -> `Error (false, e)
    | compiled, r ->
        (* every requested artifact is written before the verdict *)
        Option.iter
          (fun (path, tr) ->
            Pv_obs.Trace.write ~process:name tr path;
            Format.eprintf "wrote %s: %d events%s@." path
              (Pv_obs.Trace.event_count tr)
              (match Pv_obs.Trace.dropped tr with
              | 0 -> ""
              | n -> Printf.sprintf " (%d dropped)" n))
          tr;
        (match (prof, folded) with
        | Some prof, Some path ->
            Out_channel.with_open_text path (fun oc ->
                Out_channel.output_string oc (Pv_obs.Prof.folded prof ~kernel:name));
            Format.eprintf "wrote folded stacks to %s@." path
        | _ -> ());
        let verdict =
          match r.Pipeline.outcome with
          | Pv_dataflow.Sim.Finished _ -> (
              match Pipeline.verify compiled r with
              | [] -> Ok ()
              | l ->
                  Error
                    (Printf.sprintf "%d memory mismatches vs the interpreter"
                       (List.length l))
              | exception Invalid_argument e -> Error e)
          | o ->
              Error
                (Format.asprintf "%a@\n%a" Pv_dataflow.Sim.pp_outcome o
                   (Format.pp_print_option Pv_dataflow.Sim.pp_post_mortem)
                   (Pipeline.post_mortem r))
        in
        if verdict = Ok () then begin
          Format.fprintf summary "%s / %s: %a@." name (Scheme.to_string dis)
            Pv_dataflow.Sim.pp_outcome r.Pipeline.outcome;
          Format.fprintf summary "memory system: %a@." Pv_dataflow.Memif.pp_stats
            r.Pipeline.mem_stats;
          Format.fprintf summary "VERIFIED against the reference interpreter@."
        end;
        (match prof with
        | Some prof when profile ->
            let u =
              Pv_obs.Prof.usage prof
                ~cycles:r.Pipeline.run_stats.Pv_dataflow.Sim.cycles
                ~fires:r.Pipeline.run_stats.Pv_dataflow.Sim.node_fires
            in
            if json then
              (* one object: the hot-spot report, then the utilisation view *)
              let members = function Pv_obs.Json.Obj l -> l | _ -> [] in
              print_endline
                (Pv_obs.Json.to_string
                   (Pv_obs.Json.Obj
                      (members (Pv_obs.Prof.to_json ~top prof ~kernel:name)
                      @ members
                          (Pv_obs.Prof.usage_to_json u
                             ~outcome:
                               (Pv_dataflow.Sim.outcome_name r.Pipeline.outcome)))))
            else
              Format.printf "%a%aII = %.2f cycles/iteration@."
                (Pv_obs.Prof.pp ~top) prof (Pv_obs.Prof.pp_usage ~top) u
                (Pv_obs.Prof.initiation_interval u
                   ~instances:(Pv_frontend.Trace.length compiled.Pipeline.trace))
        | _ -> ());
        Option.iter print_metrics m;
        (match verdict with Ok () -> `Ok () | Error e -> `Error (false, e))
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Simulate a kernel and verify the result, optionally under fault \
          injection, recording any of a Chrome trace, a profile and a metric \
          snapshot of the same run.")
    Term.(
      ret
        (const run $ kernel_arg $ backend_arg $ cse_arg $ fold_arg
        $ inject_arg $ fault_seed_arg $ engine_arg $ metrics_arg "stdout"
        $ trace_arg $ max_cycles_arg $ profile_arg $ top_arg $ folded_arg
        $ json_arg))

(* --- report --------------------------------------------------------------- *)

let report_cmd =
  let run kernel metrics =
    let points = Experiment.paper_points kernel in
    Printf.printf "%-12s %8s %8s %8s %8s %10s\n" "scheme" "LUT" "FF" "CP(ns)"
      "cycles" "exec(us)";
    List.iter
      (fun (p : Experiment.point) ->
        Printf.printf "%-12s %8d %8d %8.2f %8d %10.2f%s\n" p.Experiment.config
          p.Experiment.report.Pv_resource.Report.luts
          p.Experiment.report.Pv_resource.Report.ffs
          p.Experiment.report.Pv_resource.Report.cp_ns p.Experiment.cycles
          p.Experiment.exec_us
          (if p.Experiment.verified then "" else "  NOT VERIFIED"))
      points;
    if metrics then
      print_endline
        (Pv_obs.Json.to_string
           (Pv_obs.Json.Obj
              (List.map
                 (fun (p : Experiment.point) ->
                   ( p.Experiment.config,
                     Pv_obs.Metrics.snapshot_to_json p.Experiment.metrics ))
                 points)))
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Area, clock period and runtime for every scheme (one Table I/II row).")
    Term.(const run $ kernel_arg $ metrics_arg "stdout")

(* --- sweep ------------------------------------------------------------------ *)

let sweep_cmd =
  let kernels_arg =
    let doc = "Kernels to sweep (default: the paper's five benchmarks)." in
    Arg.(value & pos_all kernel_conv [] & info [] ~docv:"KERNEL" ~doc)
  in
  let jobs_arg =
    let doc =
      "Worker domains to fan the grid across (0 = one per available core)."
    in
    Arg.(value & opt int 0 & info [ "j"; "jobs" ] ~docv:"N" ~doc)
  in
  let no_cache_arg =
    Arg.(
      value & flag
      & info [ "no-cache" ]
          ~doc:"Recompute every point instead of reusing the result cache.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the points as a JSON array on stdout.")
  in
  let backends_arg =
    let doc =
      "Backends to include, by registry name (default: the paper's four \
       configurations)."
    in
    Arg.(
      value
      & opt (list backend_conv) (Experiment.paper_configs ())
      & info [ "backends" ] ~docv:"NAME,.." ~doc)
  in
  let run kernels jobs no_cache json schemes metrics =
    let kernels =
      match kernels with
      | [] -> Pv_kernels.Defs.paper_benchmarks ()
      | ks -> ks
    in
    let jobs = if jobs <= 0 then Parallel.default_jobs () else jobs in
    let cache =
      if no_cache then None
      else Some (Parallel.Cache.on_disk ~dir:(Parallel.Cache.default_dir ()) ())
    in
    let cells =
      List.concat_map (fun k -> List.map (fun d -> (k, d)) schemes) kernels
    in
    let m = if metrics then Some (Pv_obs.Metrics.create ()) else None in
    let results = Experiment.sweep ?cache ?metrics:m ~jobs cells in
    if json then (
      print_string "[\n";
      let n = List.length cells in
      List.iteri
        (fun i ((kernel, dis), result) ->
          let body =
            match result with
            | Ok p -> Experiment.point_to_json p
            | Error (e : Supervisor.task_error) ->
                Printf.sprintf "{ \"kernel\": %S, \"config\": %S, \"error\": %S }"
                  kernel.Pv_kernels.Ast.name (Scheme.to_string dis) e.last_error
          in
          Printf.printf "  %s%s\n" body (if i = n - 1 then "" else ","))
        (List.combine cells results);
      print_string "]\n")
    else (
      Printf.printf "%-14s %-12s %8s %8s %8s %8s %10s\n" "kernel" "scheme"
        "LUT" "FF" "CP(ns)" "cycles" "exec(us)";
      List.iter2
        (fun (kernel, dis) result ->
          match result with
          | Ok (p : Experiment.point) ->
              Printf.printf "%-14s %-12s %8d %8d %8.2f %8d %10.2f%s\n"
                p.Experiment.kernel p.Experiment.config
                p.Experiment.report.Pv_resource.Report.luts
                p.Experiment.report.Pv_resource.Report.ffs
                p.Experiment.report.Pv_resource.Report.cp_ns
                p.Experiment.cycles p.Experiment.exec_us
                (if p.Experiment.verified then "" else "  NOT VERIFIED")
          | Error (e : Supervisor.task_error) ->
              Printf.printf "%-14s %-12s infeasible: %s\n"
                kernel.Pv_kernels.Ast.name (Scheme.to_string dis) e.last_error)
        cells results);
    (* stats go to stderr so --json output stays a clean document *)
    (match cache with
    | None -> ()
    | Some cache ->
        Printf.eprintf "cache: %d hits, %d misses (%s)\n"
          (Parallel.Cache.hits cache)
          (Parallel.Cache.misses cache)
          (Parallel.Cache.default_dir ()));
    Printf.eprintf "%d points across %d worker(s) (%d effective)\n"
      (List.length cells) jobs
      (Parallel.effective_jobs jobs);
    (* aggregate metrics also to stderr, keeping --json a clean document *)
    Option.iter
      (fun m ->
        Printf.eprintf "%s\n"
          (Pv_obs.Json.to_string (Pv_obs.Metrics.to_json m)))
      m
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Evaluate a kernel x scheme grid across worker domains, reusing \
          cached results.  $(b,--metrics) prints the aggregated snapshot \
          (every point's metrics absorbed, plus runner.* telemetry) as JSON \
          on stderr.")
    Term.(
      const run $ kernels_arg $ jobs_arg $ no_cache_arg $ json_arg
      $ backends_arg $ metrics_arg "stderr")

(* --- emit ------------------------------------------------------------------ *)

let emit_cmd =
  let output_arg =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE")
  in
  let run kernel dis output =
    let compiled = Pipeline.compile kernel in
    let nl =
      Pv_netlist.Elaborate.circuit compiled.Pipeline.graph
        compiled.Pipeline.info.Pv_frontend.Depend.portmap
        (Scheme.elaboration_of dis)
    in
    let entity =
      Printf.sprintf "%s_%s" kernel.Pv_kernels.Ast.name (Scheme.to_string dis)
    in
    let path = match output with Some p -> p | None -> entity ^ ".vhd" in
    Pv_netlist.Emit.to_file path ~entity nl;
    let t = Pv_netlist.Primitive.totals nl in
    Format.printf "wrote %s (%a)@." path Pv_netlist.Primitive.pp_totals t
  in
  Cmd.v
    (Cmd.info "emit" ~doc:"Write the structural netlist (VHDL-flavoured).")
    Term.(const run $ kernel_arg $ backend_arg $ output_arg)

(* --- dot ------------------------------------------------------------------- *)

let dot_cmd =
  let output_arg =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE")
  in
  let run kernel output =
    let compiled = Pipeline.compile kernel in
    let path =
      match output with Some p -> p | None -> kernel.Pv_kernels.Ast.name ^ ".dot"
    in
    Pv_dataflow.Dot.to_file path compiled.Pipeline.graph;
    Format.printf "wrote %s (%d nodes)@." path
      (Pv_dataflow.Graph.n_nodes compiled.Pipeline.graph)
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Write the dataflow circuit as a Graphviz file.")
    Term.(const run $ kernel_arg $ output_arg)

(* --- vcd --------------------------------------------------------------------- *)

let vcd_cmd =
  let output_arg =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE")
  in
  let max_cycles_arg =
    Arg.(
      value & opt int 5000
      & info [ "max-cycles" ] ~docv:"N"
          ~doc:"Cycle budget of the recorded run; bounds the dump size.")
  in
  let run kernel dis engine output max_cycles =
    let compiled = Pipeline.compile kernel in
    let init = Pv_kernels.Workload.default_init kernel in
    let mem =
      Pv_memory.Layout.initial_memory compiled.Pipeline.layout kernel ~init
    in
    let backend = Pipeline.backend_of compiled mem dis in
    let path =
      match output with Some p -> p | None -> kernel.Pv_kernels.Ast.name ^ ".vcd"
    in
    let cfg =
      { Pv_dataflow.Sim.default_config with Pv_dataflow.Sim.engine; max_cycles }
    in
    let outcome =
      Pv_dataflow.Vcd.record ~cfg ~path compiled.Pipeline.graph backend
    in
    Format.printf "wrote %s (%a)@." path Pv_dataflow.Sim.pp_outcome outcome
  in
  Cmd.v
    (Cmd.info "vcd"
       ~doc:"Simulate while writing a VCD waveform (view with GTKWave).")
    Term.(
      const run $ kernel_arg $ backend_arg $ engine_arg
      $ output_arg $ max_cycles_arg)

(* --- area breakdown ----------------------------------------------------------- *)

let area_cmd =
  let depth_lvl_arg =
    let positive =
      Arg.conv
        ( (fun s ->
            match int_of_string_opt s with
            | Some n when n >= 1 -> Ok n
            | _ -> Error (`Msg (Printf.sprintf "%S is not a level count >= 1" s))),
          Format.pp_print_int )
    in
    Arg.(value & opt positive 2 & info [ "levels" ] ~docv:"N"
           ~doc:"Hierarchy depth of the breakdown (at least 1).")
  in
  let run kernel dis levels =
    let compiled = Pipeline.compile kernel in
    let nl =
      Pv_netlist.Elaborate.circuit compiled.Pipeline.graph
        compiled.Pipeline.info.Pv_frontend.Depend.portmap
        (Scheme.elaboration_of dis)
    in
    Printf.printf "%-32s %10s %10s
" "hierarchy" "LUT" "FF";
    List.iter
      (fun (k, t) ->
        if t.Pv_netlist.Primitive.luts > 0 || t.Pv_netlist.Primitive.ffs > 0 then
          Printf.printf "%-32s %10d %10d
" k t.Pv_netlist.Primitive.luts
            t.Pv_netlist.Primitive.ffs)
      (Pv_netlist.Primitive.group_totals ~depth:levels nl);
    let t = Pv_netlist.Primitive.totals nl in
    Printf.printf "%-32s %10d %10d
" "total" t.Pv_netlist.Primitive.luts
      t.Pv_netlist.Primitive.ffs
  in
  Cmd.v
    (Cmd.info "area" ~doc:"Hierarchical area breakdown of the netlist.")
    Term.(const run $ kernel_arg $ backend_arg $ depth_lvl_arg)

(* --- serve -------------------------------------------------------------------- *)

let serve_cmd =
  let jobs_arg =
    Arg.(
      value & opt int 0
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains (0 = one per core, capped; 1 = serial \
             reference).")
  in
  let queue_arg =
    Arg.(
      value & opt int 256
      & info [ "queue" ] ~docv:"N"
          ~doc:
            "Pending-request bound: beyond it requests are shed with an \
             explicit $(b,overloaded) response instead of queueing.")
  in
  let attempts_arg =
    Arg.(
      value & opt int 3
      & info [ "max-attempts" ] ~docv:"N"
          ~doc:"Compute attempts per request before an error response.")
  in
  let deadline_arg =
    Arg.(
      value & opt (some float) None
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:
            "Per-attempt cooperative deadline; an overrun cancels the \
             simulation and retries the request.")
  in
  let no_cache_arg =
    Arg.(
      value & flag
      & info [ "no-cache" ]
          ~doc:"Recompute every request instead of reusing the result cache.")
  in
  let log_level_arg =
    let level_conv =
      Arg.conv
        ( (fun s ->
            match Pv_obs.Log.level_of_string s with
            | Some l -> Ok l
            | None -> Error (`Msg (Printf.sprintf "unknown log level %S" s))),
          fun ppf l -> Format.pp_print_string ppf (Pv_obs.Log.level_name l) )
    in
    Arg.(
      value
      & opt level_conv Pv_obs.Log.Info
      & info [ "log-level" ] ~docv:"LEVEL"
          ~doc:
            "Structured-log threshold on stderr (debug, info, warn, error): \
             sheds, drain and the final summary as one LDJSON line each.")
  in
  let run jobs queue attempts deadline no_cache log_level metrics =
    let jobs = if jobs <= 0 then Parallel.default_jobs () else jobs in
    let t0 = Clock.now_ns () in
    let log =
      Pv_obs.Log.create ~level:log_level
        ~now_ms:(fun () -> Clock.elapsed_s t0 *. 1000.0)
        (fun line ->
          output_string stderr line;
          flush stderr)
    in
    let cache =
      if no_cache then None
      else
        Some
          (Parallel.Cache.on_disk ~log ~dir:(Parallel.Cache.default_dir ()) ())
    in
    let cfg =
      {
        Service.jobs;
        Service.queue_capacity = queue;
        Service.cache;
        Service.policy =
          {
            Supervisor.default_policy with
            Supervisor.max_attempts = max 1 attempts;
            Supervisor.deadline_s = deadline;
          };
        Service.log = log;
      }
    in
    (* graceful drain: the first SIGINT stops intake, every accepted
       request still gets its response line *)
    (try
       Sys.set_signal Sys.sigint
         (Sys.Signal_handle (fun _ -> Service.drain_now ()))
     with Invalid_argument _ -> ());
    let m = Pv_obs.Metrics.create () in
    let summary =
      Service.run ~metrics:m cfg
        ~next:(fun () -> In_channel.input_line stdin)
        ~emit:(fun line ->
          print_endline line;
          flush stdout)
    in
    Printf.eprintf "%s\n"
      (Pv_obs.Json.to_string (Service.summary_to_json summary));
    if metrics then print_metrics m;
    if summary.Service.lost > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve line-delimited JSON experiment requests from stdin: one \
          response line per request, in order.  Request: {\"id\": \"r1\", \
          \"kernel\": \"gaussian\", \"backend\": \"prevv16\"} with optional \
          engine/max_cycles/fault_seed.  SIGINT drains gracefully.")
    Term.(
      const run $ jobs_arg $ queue_arg $ attempts_arg $ deadline_arg
      $ no_cache_arg $ log_level_arg $ metrics_arg "stdout")

(* --- utilisation -------------------------------------------------------------- *)

let util_cmd =
  let run kernel =
    List.iter
      (fun (p : Experiment.point) ->
        Format.printf "%-12s" p.Experiment.config;
        List.iter
          (fun dev ->
            let u = Pv_resource.Device.utilisation dev p.Experiment.report in
            Format.printf "  [%a, %d copies]" Pv_resource.Device.pp_utilisation u
              (Pv_resource.Device.copies_that_fit dev p.Experiment.report))
          Pv_resource.Device.devices;
        Format.printf "@.")
      (Experiment.paper_points kernel)
  in
  Cmd.v
    (Cmd.info "util"
       ~doc:
         "Device utilisation per scheme (the edge-device argument of the \
          paper's introduction).")
    Term.(const run $ kernel_arg)

let () =
  let doc = "PreVV: LSQ-free memory disambiguation for dataflow circuits." in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "prevv" ~version:"1.0.0" ~doc)
          [
            list_cmd; backends_cmd; show_cmd; run_cmd; bounds_cmd;
            report_cmd; sweep_cmd; emit_cmd; dot_cmd; vcd_cmd; util_cmd;
            area_cmd; serve_cmd;
          ]))
