(* Sec. V-C / Fig. 6: an ambiguous pair whose store sits behind an `if`.

   Without fake tokens the arbiter never hears from the untaken branch, the
   commit frontier starves, the premature queue backs up and the pipeline
   deadlocks.  With fake tokens the untaken branch notifies the arbiter and
   everything drains.

     dune exec examples/deadlock_demo.exe *)

open Pv_core

let run ~fake_tokens =
  let kernel = Pv_kernels.Defs.cond_update ~n:64 ~threshold:50 () in
  let options =
    { Pv_frontend.Build.default_options with Pv_frontend.Build.fake_tokens }
  in
  let compiled = Pipeline.compile ~options kernel in
  let sim_cfg =
    { Pv_dataflow.Sim.default_config with Pv_dataflow.Sim.stall_limit = 512 }
  in
  Pipeline.simulate ~sim_cfg compiled (Scheme.prevv 8)

let () =
  let kernel = Pv_kernels.Defs.cond_update () in
  Format.printf "Kernel (store inside a conditional):@.%a@.@."
    Pv_kernels.Ast.pp_kernel kernel;

  Format.printf "--- run 1: PreVV with fake tokens (Sec. V-C) ---@.";
  let ok = run ~fake_tokens:true in
  Format.printf "outcome: %a@." Pv_dataflow.Sim.pp_outcome ok.Pipeline.outcome;
  Format.printf "fake tokens sent by the untaken branch: %d@.@."
    ok.Pipeline.mem_stats.Pv_dataflow.Memif.fake_tokens;

  Format.printf "--- run 2: same circuit, fake tokens removed ---@.";
  let bad = run ~fake_tokens:false in
  Format.printf "outcome: %a@." Pv_dataflow.Sim.pp_outcome bad.Pipeline.outcome;
  Format.printf
    "the arbiter received %d fake tokens; the commit frontier starved on the@.\
     first untaken iteration and the pipeline wedged, exactly the failure@.\
     mode of the paper's Fig. 6.@."
    bad.Pipeline.mem_stats.Pv_dataflow.Memif.fake_tokens
