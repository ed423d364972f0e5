(* Differential testing as a workflow: generate random kernels, run them
   through every disambiguation backend, and check all final memories
   against the reference interpreter — the methodology that caught a real
   out-of-bounds-speculation bug in this library's own backend during
   development.

     dune exec examples/differential.exe [-- SEED_COUNT] *)

open Pv_core

let () =
  let n = try int_of_string Sys.argv.(1) with _ -> 25 in
  let schemes =
    [ Scheme.plain_lsq; Scheme.fast_lsq; Scheme.prevv 16; Scheme.prevv 64 ]
  in
  Format.printf "Differential run over %d generated kernels x %d schemes:@.@."
    n (List.length schemes);
  let failures = ref 0 and squashy = ref 0 in
  for seed = 0 to n - 1 do
    let kernel = Pv_kernels.Generate.kernel seed in
    let init = Pv_kernels.Generate.init_for kernel seed in
    let info = Pv_frontend.Depend.analyse kernel in
    Format.printf "seed %-4d %d leaves, %d ports, %d ambiguous arrays:" seed
      (List.length info.Pv_frontend.Depend.leaves)
      (Array.length info.Pv_frontend.Depend.portmap.Pv_memory.Portmap.ports)
      info.Pv_frontend.Depend.portmap.Pv_memory.Portmap.n_instances;
    List.iter
      (fun dis ->
        match Pipeline.check ~init kernel dis with
        | Ok r ->
            if r.Pipeline.mem_stats.Pv_dataflow.Memif.squashes > 0 then
              incr squashy;
            Format.printf " %s=%d" (Scheme.to_string dis) r.Pipeline.cycles
        | Error e ->
            incr failures;
            Format.printf " %s=FAIL(%s)" (Scheme.to_string dis) e)
      schemes;
    Format.printf "@."
  done;
  Format.printf "@.%d failures; %d runs exercised squash/replay.@." !failures
    !squashy;
  if !failures > 0 then exit 1
