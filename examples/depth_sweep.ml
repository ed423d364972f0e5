(* Sec. V-A: the premature-queue depth trade-off (Defs. 2-3, Eqs. 6-7).

   Sweeping Depth_q on the gaussian kernel shows the two regimes the paper
   describes: a too-shallow queue backpressures the pipeline (cycles grow),
   a too-deep queue wastes area (LUTs grow) with no speed left to gain.
   The sizing model picks the matched depth between them.

     dune exec examples/depth_sweep.exe *)

open Pv_core

let () =
  let kernel = Pv_kernels.Defs.gaussian () in
  Format.printf "Queue-depth sweep on %s:@.@." kernel.Pv_kernels.Ast.name;
  Format.printf "  %-8s %10s %10s %12s@." "depth" "cycles" "LUT" "full-stalls";
  let depths = [ 4; 8; 12; 16; 24; 32; 48; 64; 96 ] in
  let results =
    Experiment.sweep (List.map (fun d -> (kernel, Scheme.prevv d)) depths)
  in
  let points =
    List.filter_map
      (fun (d, result) ->
        match result with
        | Ok (p : Experiment.point) ->
            Format.printf "  %-8d %10d %10d %12d@." d p.Experiment.cycles
              p.Experiment.report.Pv_resource.Report.luts
              p.Experiment.mem_stats.Pv_dataflow.Memif.stall_full;
            Some (d, p)
        | Error (e : Supervisor.task_error) ->
            Format.printf "  %-8d (infeasible: %s)@." d e.last_error;
            None)
      (List.combine depths results)
  in
  (* the smallest depth within 2% of the best cycle count *)
  let best_cycles =
    List.fold_left (fun m (_, p) -> min m p.Experiment.cycles) max_int points
  in
  let matched =
    List.find_opt
      (fun (_, p) -> p.Experiment.cycles * 100 <= best_cycles * 102)
      points
  in
  (match matched with
  | Some (d, _) ->
      Format.printf "@.empirically matched depth (within 2%% of best): %d@." d
  | None -> ());
  (* the analytic model of Eqs. 6-7, parameterised from the sweep *)
  let t_org = 10.0 and p_s = 0.01 and t_token = 180.0 in
  Format.printf
    "analytic matched depth (Eqs. 6-7, t_org=%.0f cycles, P_s=%.2f, \
     t_token=%.0f cycles): %d@."
    t_org p_s t_token
    (Pv_prevv.Sizing.matched_depth ~t_org ~p_s ~t_token);
  Format.printf
    "@.Reading: cycles fall steeply until the queue covers the pipeline's@.\
     premature window, then flatten; LUTs keep growing linearly — the@.\
     trade-off of the paper's conclusion (PreVV16 vs PreVV64).@."
