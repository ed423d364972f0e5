(* End-to-end integration: every kernel under every disambiguation scheme
   must finish and leave exactly the memory the reference interpreter
   computes (the paper's ModelSim-vs-C++ check), plus failure-injection
   and randomized-equivalence properties. *)

open Pv_core

let configs () =
  [ Scheme.plain_lsq; Scheme.fast_lsq; Scheme.prevv 16; Scheme.prevv 64 ]

let check_ok kernel dis () =
  match Pipeline.check kernel dis with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

let grid_cases =
  List.concat_map
    (fun kernel ->
      List.map
        (fun dis ->
          Alcotest.test_case
            (Printf.sprintf "%s / %s" kernel.Pv_kernels.Ast.name
               (Scheme.to_string dis))
            `Quick
            (check_ok kernel dis))
        (configs ()))
    (Pv_kernels.Defs.all ())

(* squash/replay really happens and still converges to the right answer *)
let test_squashes_yet_correct () =
  match Pipeline.check (Pv_kernels.Defs.triangular_tight ()) (Scheme.prevv 16) with
  | Ok r ->
      Alcotest.(check bool) "squashes occurred" true
        (r.Pipeline.mem_stats.Pv_dataflow.Memif.squashes > 0);
      Alcotest.(check bool) "ops were replayed" true
        (r.Pipeline.mem_stats.Pv_dataflow.Memif.replayed_ops > 0)
  | Error e -> Alcotest.fail e

(* depth-16 pressure: gaussian stalls at the shallow queue, recovers at 64 *)
let test_depth_pressure () =
  let cycles d =
    match Pipeline.check (Pv_kernels.Defs.gaussian ()) (Scheme.prevv d) with
    | Ok r -> r.Pipeline.cycles
    | Error e -> Alcotest.fail e
  in
  let c16 = cycles 16 and c64 = cycles 64 in
  Alcotest.(check bool)
    (Printf.sprintf "16-deep (%d) slower than 64-deep (%d)" c16 c64)
    true
    (c16 > c64 * 11 / 10)

(* failure injection: removing fake tokens deadlocks the conditional kernel *)
let test_fake_token_removal_deadlocks () =
  let options =
    { Pv_frontend.Build.default_options with Pv_frontend.Build.fake_tokens = false }
  in
  let compiled = Pipeline.compile ~options (Pv_kernels.Defs.cond_update ()) in
  let sim_cfg =
    { Pv_dataflow.Sim.default_config with Pv_dataflow.Sim.stall_limit = 256 }
  in
  let r = Pipeline.simulate ~sim_cfg compiled (Scheme.prevv 8) in
  match r.Pipeline.outcome with
  | Pv_dataflow.Sim.Deadlock _ -> ()
  | o ->
      Alcotest.failf "expected deadlock, got %a" Pv_dataflow.Sim.pp_outcome o

(* failure injection: an infeasible queue depth is rejected up front *)
let test_infeasible_depth_rejected () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Pipeline.check (Pv_kernels.Defs.gaussian ()) (Scheme.prevv 2));
       false
     with Invalid_argument _ -> true)

(* LSQ baselines never squash (they never speculate) *)
let test_lsq_never_squashes () =
  List.iter
    (fun kernel ->
      match Pipeline.check kernel Scheme.fast_lsq with
      | Ok r ->
          Alcotest.(check int)
            (kernel.Pv_kernels.Ast.name ^ " squashes")
            0 r.Pipeline.mem_stats.Pv_dataflow.Memif.squashes
      | Error e -> Alcotest.fail e)
    (Pv_kernels.Defs.paper_benchmarks ())

(* cond_update exercises fake tokens under every scheme *)
let test_fake_tokens_flow () =
  List.iter
    (fun dis ->
      match Pipeline.check (Pv_kernels.Defs.cond_update ()) dis with
      | Ok r ->
          Alcotest.(check bool)
            (Scheme.to_string dis ^ " fake tokens seen")
            true
            (r.Pipeline.mem_stats.Pv_dataflow.Memif.fake_tokens > 0)
      | Error e -> Alcotest.fail e)
    (configs ())

(* randomized scatter-accumulate kernels: circuit == interpreter for every
   backend, random index patterns and sizes *)
let prop_random_scatter_equivalence =
  QCheck.Test.make ~count:12 ~name:"random scatter kernels verify end-to-end"
    QCheck.(triple (int_range 8 40) (int_range 0 1000) (int_range 0 3))
    (fun (n, seed, which) ->
      let kernel =
        Pv_kernels.Ast.(
          {
            name = "rand_scatter";
            arrays = [ ("idx", n); ("acc", n); ("src", n) ];
            params = [];
            body =
              [
                for_ "i" (i 0) (i n)
                  [
                    store "acc" (idx "idx" (v "i"))
                      (idx "acc" (idx "idx" (v "i")) + idx "src" (v "i"));
                  ];
              ];
          })
      in
      let r = Pv_kernels.Workload.rng seed in
      let init =
        [
          ("idx", Pv_kernels.Workload.index_array r ~len:n ~range:n);
          ("src", Pv_kernels.Workload.array r ~len:n ~lo:1 ~hi:50);
        ]
      in
      let dis =
        match which with
        | 0 -> Scheme.plain_lsq
        | 1 -> Scheme.fast_lsq
        | 2 -> Scheme.prevv 16
        | _ -> Scheme.prevv 64
      in
      match Pipeline.check ~init kernel dis with
      | Ok _ -> true
      | Error e -> QCheck.Test.fail_report e)

(* randomized short-distance accumulators force mis-speculation and replay;
   results must still match *)
let prop_random_tight_reuse =
  QCheck.Test.make ~count:12 ~name:"tight-reuse kernels squash and still verify"
    QCheck.(pair (int_range 2 6) (int_range 20 60))
    (fun (stride, n) ->
      let kernel =
        Pv_kernels.Ast.(
          {
            name = "tight";
            arrays = [ ("acc", stride); ("src", n) ];
            params = [ ("S", stride) ];
            body =
              [
                for_ "i" (i 0) (i n)
                  [
                    store "acc" (v "i" % v "S")
                      (idx "acc" (v "i" % v "S") + idx "src" (v "i"));
                  ];
              ];
          })
      in
      let r = Pv_kernels.Workload.rng (stride * 1000 + n) in
      let init = [ ("src", Pv_kernels.Workload.array r ~len:n ~lo:1 ~hi:9) ] in
      match Pipeline.check ~init kernel (Scheme.prevv 16) with
      | Ok _ -> true
      | Error e -> QCheck.Test.fail_report e)

let () =
  Alcotest.run "integration"
    [
      ("grid (kernel x scheme, verified)", grid_cases);
      ( "behaviour",
        [
          Alcotest.test_case "squashes yet correct" `Quick
            test_squashes_yet_correct;
          Alcotest.test_case "depth pressure" `Quick test_depth_pressure;
          Alcotest.test_case "fake-token removal deadlocks" `Quick
            test_fake_token_removal_deadlocks;
          Alcotest.test_case "infeasible depth rejected" `Quick
            test_infeasible_depth_rejected;
          Alcotest.test_case "LSQ never squashes" `Quick test_lsq_never_squashes;
          Alcotest.test_case "fake tokens flow" `Quick test_fake_tokens_flow;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_random_scatter_equivalence;
          QCheck_alcotest.to_alcotest prop_random_tight_reuse;
        ] );
    ]
