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

(* Sec. V-A's queue-depth sweep, at the named depths bench's depth_sweep
   section prints: per paper kernel, each depth's point, or [None] where
   the backend rejects the depth up front *)
let sweep_depths = [ 1; 2; 3; 4; 6; 8; 12; 16; 24; 32; 48; 64 ]

let depth_sweeps =
  lazy
    (List.map
       (fun kernel ->
         let compiled = Pipeline.compile kernel in
         ( kernel,
           compiled,
           List.map
             (fun d ->
               ( d,
                 try Some (Experiment.run ~compiled kernel (Scheme.prevv d))
                 with Invalid_argument _ -> None ))
             sweep_depths ))
       (Pv_kernels.Defs.paper_benchmarks ()))

let feasible points =
  List.filter_map (fun (d, p) -> Option.map (fun p -> (d, p)) p) points

(* the smallest depth within 2% of the best cycle count *)
let knee points =
  let points = feasible points in
  let best =
    List.fold_left (fun m (_, p) -> min m p.Experiment.cycles) max_int points
  in
  fst
    (List.find
       (fun (_, (p : Experiment.point)) -> p.Experiment.cycles * 100 <= best * 102)
       points)

let sweep_of name =
  List.find
    (fun ((k : Pv_kernels.Ast.kernel), _, _) -> k.name = name)
    (Lazy.force depth_sweeps)

(* every feasible depth verifies, and the knee is the one EXPERIMENTS.md
   Sec. V-A reports *)
let test_knee name expected () =
  let _, _, points = sweep_of name in
  List.iter
    (fun (d, (p : Experiment.point)) ->
      Alcotest.(check bool) (Printf.sprintf "prevv%d verified" d) true
        p.Experiment.verified)
    (feasible points);
  Alcotest.(check int) "knee" expected (knee points)

let knee_cases =
  List.map
    (fun (name, expected) ->
      Alcotest.test_case
        (Printf.sprintf "%s knee at %d" name expected)
        `Quick (test_knee name expected))
    [ ("polyn_mult", 4); ("2mm", 8); ("3mm", 8); ("gaussian", 24); ("triangular", 4) ]

(* a named depth is rejected exactly when its simulated queue cannot hold
   the largest instance's member ports (one body instance) *)
let test_infeasible_below_largest_instance () =
  List.iter
    (fun ((k : Pv_kernels.Ast.kernel), (c : Pipeline.compiled), points) ->
      let pm = c.Pipeline.info.Pv_frontend.Depend.portmap in
      let members inst =
        Array.fold_left
          (fun n p -> if p.Pv_memory.Portmap.instance = Some inst then n + 1 else n)
          0 pm.Pv_memory.Portmap.ports
      in
      let largest =
        List.fold_left max 0 (List.init pm.Pv_memory.Portmap.n_instances members)
      in
      List.iter
        (fun (d, p) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s/prevv%d feasible" k.name d)
            (Pv_prevv.Backend.depth_scale * d >= largest)
            (Option.is_some p))
        points)
    (Lazy.force depth_sweeps)

(* a deeper queue stalls less: cycles fall strictly up to the knee *)
let test_cycles_fall_to_knee () =
  List.iter
    (fun ((k : Pv_kernels.Ast.kernel), _, points) ->
      let k_d = knee points in
      ignore
        (List.fold_left
           (fun prev (d, (p : Experiment.point)) ->
             if d <= k_d then
               Alcotest.(check bool)
                 (Printf.sprintf "%s/prevv%d: %d < %d" k.name d p.Experiment.cycles prev)
                 true (p.Experiment.cycles < prev);
             p.Experiment.cycles)
           max_int (feasible points)))
    (Lazy.force depth_sweeps)

(* the other side of the trade-off: every deeper queue costs LUTs *)
let test_luts_rise_with_depth () =
  List.iter
    (fun ((k : Pv_kernels.Ast.kernel), _, points) ->
      ignore
        (List.fold_left
           (fun prev (d, (p : Experiment.point)) ->
             let luts = p.Experiment.report.Pv_resource.Report.luts in
             Alcotest.(check bool)
               (Printf.sprintf "%s/prevv%d: %d > %d LUTs" k.name d luts prev)
               true (luts > prev);
             luts)
           0 (feasible points)))
    (Lazy.force depth_sweeps)

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
      ( "depth sweep (Sec. V-A)",
        knee_cases
        @ [
            Alcotest.test_case "infeasible below the largest instance" `Quick
              test_infeasible_below_largest_instance;
            Alcotest.test_case "cycles fall to the knee" `Quick
              test_cycles_fall_to_knee;
            Alcotest.test_case "LUTs rise with depth" `Quick
              test_luts_rise_with_depth;
          ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_random_scatter_equivalence;
          QCheck_alcotest.to_alcotest prop_random_tight_reuse;
        ] );
    ]
