let () =
  let open Pv_core in
  let kernels = Pv_kernels.Defs.all () in
  (* every registered scheme, bound backends included *)
  let configs =
    List.map (fun (module M : Scheme.S) -> M.config) (Scheme.all ())
  in
  List.iter
    (fun k ->
      List.iter
        (fun dis ->
          let t0 = Clock.now_ns () in
          (match Pipeline.check k dis with
          | Ok r ->
              Printf.printf "%-12s %-10s OK  cycles=%6d  %s  (%.2fs)\n%!"
                k.Pv_kernels.Ast.name (Scheme.to_string dis) r.Pipeline.cycles
                (Format.asprintf "%a" Pv_dataflow.Memif.pp_stats r.Pipeline.mem_stats)
                (Clock.elapsed_s t0)
          | Error e -> Printf.printf "FAIL %s (%.2fs)\n%!" e (Clock.elapsed_s t0)))
        configs)
    kernels
