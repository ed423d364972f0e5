(* Tests for the tooling around the core flow: VCD recording, profiling,
   device utilisation, and the ablation switches. *)

open Pv_core

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let read_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* --- VCD --------------------------------------------------------------------- *)

let test_vcd_records () =
  let kernel = Pv_kernels.Defs.histogram ~n:16 () in
  let compiled = Pipeline.compile kernel in
  let init = Pv_kernels.Workload.default_init kernel in
  let mem = Pv_memory.Layout.initial_memory compiled.Pipeline.layout kernel ~init in
  let backend = Pipeline.backend_of compiled mem (Scheme.prevv 16) in
  let path = Filename.temp_file "pv_test" ".vcd" in
  let outcome = Pv_dataflow.Vcd.record ~path compiled.Pipeline.graph backend in
  (match outcome with
  | Pv_dataflow.Sim.Finished _ -> ()
  | o -> Alcotest.failf "vcd run: %a" Pv_dataflow.Sim.pp_outcome o);
  let vcd = read_file path in
  Sys.remove path;
  Alcotest.(check bool) "header" true (contains ~needle:"$enddefinitions" vcd);
  Alcotest.(check bool) "declares channels" true (contains ~needle:"loopnest" vcd);
  Alcotest.(check bool) "has timestamps" true (contains ~needle:"#10" vcd);
  Alcotest.(check bool) "has vector changes" true (contains ~needle:"b0000" vcd)

(* the recording runs on Sim's own loop: cfg.max_cycles is its budget and
   cfg.cancel is polled *)
let test_vcd_budget_and_cancel () =
  let compiled = Pipeline.compile (Pv_kernels.Defs.gaussian ()) in
  let record cfg =
    let mem =
      Pv_memory.Layout.initial_memory compiled.Pipeline.layout
        compiled.Pipeline.kernel
        ~init:(Pv_kernels.Workload.default_init compiled.Pipeline.kernel)
    in
    let path = Filename.temp_file "pv_test" ".vcd" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Pv_dataflow.Vcd.record ~cfg ~path compiled.Pipeline.graph
          (Pipeline.backend_of compiled mem (Scheme.prevv 16)))
  in
  let base = Pv_dataflow.Sim.default_config in
  (match record { base with Pv_dataflow.Sim.max_cycles = 100 } with
  | Pv_dataflow.Sim.Timeout { at_cycle = 100; _ } -> ()
  | o -> Alcotest.failf "max_cycles = 100: %a" Pv_dataflow.Sim.pp_outcome o);
  match record { base with Pv_dataflow.Sim.cancel = (fun () -> true) } with
  | exception Pv_dataflow.Sim.Cancelled _ -> ()
  | o -> Alcotest.failf "cancelled recording: %a" Pv_dataflow.Sim.pp_outcome o

(* --- Profile ------------------------------------------------------------------ *)

let test_profile () =
  let compiled = Pipeline.compile (Pv_kernels.Defs.polyn_mult ~n:8 ()) in
  let prof = Pv_obs.Prof.create () in
  let r = Pipeline.simulate ~prof compiled (Scheme.prevv 16) in
  (match r.Pipeline.outcome with
  | Pv_dataflow.Sim.Finished _ -> ()
  | o -> Alcotest.failf "profile run: %a" Pv_dataflow.Sim.pp_outcome o);
  let u =
    Pv_obs.Prof.usage prof ~cycles:r.Pipeline.run_stats.Pv_dataflow.Sim.cycles
      ~fires:r.Pipeline.run_stats.Pv_dataflow.Sim.node_fires
  in
  (* every non-sink node processed all 64 instances (buffers and ports may
     fire twice per token: accept and emit in different evaluations) *)
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "%s fired %d" n.Pv_obs.Prof.nu_label
           n.Pv_obs.Prof.nu_fires)
        true
        (n.Pv_obs.Prof.nu_fires >= 64 && n.Pv_obs.Prof.nu_fires <= 130))
    u.Pv_obs.Prof.nodes;
  let ii = Pv_obs.Prof.initiation_interval u ~instances:64 in
  Alcotest.(check bool) (Printf.sprintf "II %.2f near 1" ii) true (ii < 1.8);
  (* pressures are valid fractions, sorted descending *)
  let rec sorted = function
    | a :: (b :: _ as rest) ->
        a.Pv_obs.Prof.cu_pressure >= b.Pv_obs.Prof.cu_pressure && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted by pressure" true (sorted u.Pv_obs.Prof.chans)

(* --- Device ------------------------------------------------------------------- *)

let test_device_utilisation () =
  let kernel = Pv_kernels.Defs.polyn_mult () in
  let p16 = Experiment.run kernel (Scheme.prevv 16) in
  let lsq = Experiment.run kernel Scheme.fast_lsq in
  let edge = Pv_resource.Device.xc7a35t in
  let u16 = Pv_resource.Device.utilisation edge p16.Experiment.report in
  let ul = Pv_resource.Device.utilisation edge lsq.Experiment.report in
  Alcotest.(check bool) "prevv uses less of the device" true
    (u16.Pv_resource.Device.lut_pct < ul.Pv_resource.Device.lut_pct);
  Alcotest.(check bool) "more copies fit with prevv" true
    (Pv_resource.Device.copies_that_fit edge p16.Experiment.report
    >= Pv_resource.Device.copies_that_fit edge lsq.Experiment.report);
  (* the big Kintex always fits one instance of every published circuit *)
  List.iter
    (fun point ->
      let u =
        Pv_resource.Device.utilisation Pv_resource.Device.xc7k160t
          point.Experiment.report
      in
      Alcotest.(check bool) (point.Experiment.config ^ " fits xc7k160t") true
        u.Pv_resource.Device.fits)
    [ p16; lsq ]

(* [prevv report] and [prevv util] print Experiment.paper_points, which
   compiles once: every point, the report and metrics they print included,
   equals the point of a run that compiles for itself. *)
let test_paper_points_compile_once () =
  List.iter
    (fun kernel ->
      let once = Experiment.paper_points kernel in
      let each = List.map (Experiment.run kernel) (Experiment.paper_configs ()) in
      List.iter2
        (fun (a : Experiment.point) b ->
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s" a.Experiment.kernel a.Experiment.config)
            true (a = b))
        once each)
    (Pv_kernels.Defs.histogram () :: Pv_kernels.Defs.paper_benchmarks ())

(* --- ablation switches ----------------------------------------------------------- *)

let test_value_validation_ablation () =
  let kernel = Pv_kernels.Defs.running_max () in
  let run value_validation =
    let compiled = Pipeline.compile kernel in
    let r =
      Pipeline.simulate compiled
        (Scheme.Prevv
           { (Pv_prevv.Backend.named ~depth:16) with
             Pv_prevv.Backend.value_validation })
    in
    (match r.Pipeline.outcome with
    | Pv_dataflow.Sim.Finished _ -> ()
    | o -> Alcotest.failf "ablation run: %a" Pv_dataflow.Sim.pp_outcome o);
    (Pipeline.verify compiled r, r.Pipeline.mem_stats.Pv_dataflow.Memif.squashes)
  in
  let diffs_on, squashes_on = run true in
  let diffs_off, squashes_off = run false in
  Alcotest.(check int) "correct with Eq. 5" 0 (List.length diffs_on);
  Alcotest.(check int) "correct without Eq. 5" 0 (List.length diffs_off);
  Alcotest.(check bool)
    (Printf.sprintf "Eq. 5 saves squashes (%d vs %d)" squashes_on squashes_off)
    true
    (squashes_on * 4 < squashes_off)

let test_collapse_ablation () =
  let kernel = Pv_kernels.Defs.gaussian () in
  let run collapse_queue =
    let compiled = Pipeline.compile kernel in
    let sim_cfg =
      { Pv_dataflow.Sim.default_config with Pv_dataflow.Sim.stall_limit = 1024 }
    in
    (Pipeline.simulate ~sim_cfg compiled
       (Scheme.Prevv
          { (Pv_prevv.Backend.named ~depth:16) with
            Pv_prevv.Backend.collapse_queue }))
      .Pipeline.outcome
  in
  (match run true with
  | Pv_dataflow.Sim.Finished _ -> ()
  | o -> Alcotest.failf "collapse on: %a" Pv_dataflow.Sim.pp_outcome o);
  match run false with
  | Pv_dataflow.Sim.Deadlock _ -> ()
  | o ->
      Alcotest.failf "expected fragmentation deadlock, got %a"
        Pv_dataflow.Sim.pp_outcome o

let test_forwarding_ablation () =
  let kernel = Pv_kernels.Defs.matvec ~n:16 () in
  let run forwarding =
    match
      Pipeline.check kernel
        (Scheme.Fast_lsq { Pv_lsq.Lsq.fast with Pv_lsq.Lsq.forwarding })
    with
    | Ok r -> r.Pipeline.cycles
    | Error e -> Alcotest.fail e
  in
  let on = run true and off = run false in
  Alcotest.(check bool)
    (Printf.sprintf "forwarding helps (%d vs %d)" on off)
    true (on < off)

let () =
  Alcotest.run "pv_tools"
    [
      ( "vcd",
        [
          Alcotest.test_case "records waveforms" `Quick test_vcd_records;
          Alcotest.test_case "honours max_cycles and cancel" `Quick
            test_vcd_budget_and_cancel;
        ] );
      ("profile", [ Alcotest.test_case "utilisation and pressure" `Quick test_profile ]);
      ( "device",
        [
          Alcotest.test_case "utilisation" `Quick test_device_utilisation;
          Alcotest.test_case "paper points compile once" `Quick
            test_paper_points_compile_once;
        ] );
      ( "ablations",
        [
          Alcotest.test_case "value validation (Eq. 5)" `Quick
            test_value_validation_ablation;
          Alcotest.test_case "queue collapse" `Quick test_collapse_ablation;
          Alcotest.test_case "store-to-load forwarding" `Quick
            test_forwarding_ablation;
        ] );
    ]
