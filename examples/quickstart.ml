(* Quickstart: compile a kernel with data hazards into a dataflow circuit,
   run it under PreVV, verify it against the reference interpreter, and
   print the area/timing report.

     dune exec examples/quickstart.exe *)

open Pv_core

let () =
  (* Fig. 2(a) of the paper: a[b[i]] += A; b[i] += B — a read-after-write
     hazard whose distance is only known at run time. *)
  let kernel = Pv_kernels.Defs.histogram ~n:64 () in
  Format.printf "Kernel under test:@.%a@.@." Pv_kernels.Ast.pp_kernel kernel;

  (* 1. Compile: dependence analysis, loop-nest trace, elastic circuit. *)
  let compiled = Pipeline.compile kernel in
  let info = compiled.Pipeline.info in
  Format.printf "Ambiguous arrays (disambiguation instances): %s@."
    (String.concat ", "
       (List.map
          (fun (a, cls) ->
            Printf.sprintf "%s (%s)" a
              (match cls with
              | Pv_frontend.Depend.Affine -> "affine"
              | Pv_frontend.Depend.Indirect -> "indirect"))
          info.Pv_frontend.Depend.ambiguous_arrays));
  Format.printf "Circuit: %d components, %d channels@.@."
    (Pv_dataflow.Graph.n_nodes compiled.Pipeline.graph)
    (Pv_dataflow.Graph.n_chans compiled.Pipeline.graph);

  (* 2. Simulate under PreVV with a 16-deep premature queue. *)
  let dis = Scheme.prevv 16 in
  let result = Pipeline.simulate compiled dis in
  Format.printf "Simulation (%s): %a@." (Scheme.to_string dis)
    Pv_dataflow.Sim.pp_outcome result.Pipeline.outcome;
  Format.printf "Memory-system activity: %a@.@." Pv_dataflow.Memif.pp_stats
    result.Pipeline.mem_stats;

  (* 3. Verify against the reference interpreter (the paper's
        ModelSim-vs-C++ check). *)
  (match Pipeline.verify compiled result with
  | [] -> Format.printf "VERIFIED: final memory matches the interpreter@.@."
  | diffs ->
      Format.printf "MISMATCHES: %d (first: %s)@.@." (List.length diffs)
        (match diffs with
        | (a, i, want, got) :: _ ->
            Printf.sprintf "%s[%d] want %d got %d" a i want got
        | [] -> assert false));

  (* 4. Area and clock period, and the comparison against the LSQ. *)
  let report d = Pv_resource.Report.of_circuit compiled.Pipeline.graph
      info.Pv_frontend.Depend.portmap d
  in
  let prevv = report (Pv_netlist.Elaborate.D_prevv 16) in
  let lsq = report (Pv_netlist.Elaborate.D_fast_lsq 32) in
  Format.printf "PreVV16 : %a@." Pv_resource.Report.pp prevv;
  Format.printf "fast LSQ: %a@." Pv_resource.Report.pp lsq;
  Format.printf "LUT saving vs LSQ: %.1f%%  FF saving: %.1f%%@."
    (100.0
    *. (1.0
       -. float_of_int prevv.Pv_resource.Report.luts
          /. float_of_int lsq.Pv_resource.Report.luts))
    (100.0
    *. (1.0
       -. float_of_int prevv.Pv_resource.Report.ffs
          /. float_of_int lsq.Pv_resource.Report.ffs));

  (* 5. Emit the structural netlist, like the VHDL the paper hands to
        Vivado. *)
  let nl =
    Pv_netlist.Elaborate.circuit compiled.Pipeline.graph
      info.Pv_frontend.Depend.portmap (Pv_netlist.Elaborate.D_prevv 16)
  in
  let path = Filename.temp_file "histogram_prevv16" ".vhd" in
  Pv_netlist.Emit.to_file path ~entity:"histogram_prevv16" nl;
  Format.printf "Structural netlist written to %s@." path
