(* The paired speed gate's verdict on canned pairs: the ratios measured
   for an eval_slot mutant and for an identical clone, the two edges of
   the rule (a slow median alone, a sign-test majority alone), the same
   rule over heap ratios, the exact model figures, runs that do not
   count, and the latency ratios the gate reports without judging. *)

module G = Speed_gate

let run ?(p50 = 50.0) ?(p95 = 90.0) ?(luts = 9000.0) ?(ffs = 2000.0) cells_per_s
    heap_peak_mb =
  Ok
    {
      G.cells_per_s;
      heap_peak_mb;
      cell_ms_p50 = p50;
      cell_ms_p95 = p95;
      model_luts = luts;
      model_ffs = ffs;
    }

(* pairs with the given speed ratios and heap ratios (1.0 by default) *)
let pairs ?heap ratios =
  let heap = Option.value heap ~default:(List.map (fun _ -> 1.0) ratios) in
  List.mapi
    (fun i (r, h) ->
      {
        G.seed = G.seed i;
        base = run 100.0 20.0;
        change = run (100.0 *. r) (20.0 *. h);
      })
    (List.combine ratios heap)

let passes ?heap name want ratios =
  Alcotest.(check bool) name want (Result.is_ok (G.verdict (pairs ?heap ratios)))

let test_mutant () =
  passes "paper_grid, median 0.786, 7/7 slower" false
    [ 0.79; 0.74; 0.80; 0.786; 0.76; 0.83; 0.78 ];
  passes "squash_storm, median 0.740, 7/7 slower" false
    [ 0.75; 0.70; 0.740; 0.79; 0.72; 0.77; 0.73 ]

let test_identical () =
  passes "paper_grid, median 1.018, 1/7 slower" true
    [ 1.05; 0.93; 1.018; 1.20; 1.01; 1.10; 1.02 ];
  passes "squash_storm, median 0.987, 5/7 slower" true
    [ 0.95; 1.06; 0.91; 0.987; 1.03; 0.97; 0.99 ]

let test_edges () =
  passes "median 0.85, 5/7 slower" true
    [ 0.80; 1.05; 0.82; 0.85; 1.10; 0.85; 0.88 ];
  passes "median 0.89, 6/7 slower" false
    [ 0.89; 0.80; 1.02; 0.85; 0.95; 0.88; 0.89 ];
  passes "six pairs are too few" false [ 1.0; 1.0; 1.0; 1.0; 1.0; 1.0 ]

(* the heap rule: a median above 1.20 fails only with 6 of 7 pairs heavier,
   and a heavy median passes when fewer pairs are heavier *)
let test_heap () =
  let ones = [ 1.0; 1.0; 1.0; 1.0; 1.0; 1.0; 1.0 ] in
  let heavy name want heap = passes ~heap name want ones in
  heavy "heap median 1.25, 7/7 heavier" false
    [ 1.25; 1.22; 1.30; 1.24; 1.27; 1.21; 1.26 ];
  heavy "heap median 1.15, 7/7 heavier" true
    [ 1.12; 1.15; 1.13; 1.18; 1.16; 1.14; 1.17 ];
  heavy "heap median 1.21, 6/7 heavier" false
    [ 1.21; 0.95; 1.30; 1.22; 1.21; 1.25; 1.24 ];
  heavy "heap median 1.25, 5/7 heavier" true
    [ 1.25; 0.95; 1.30; 1.26; 0.98; 1.25; 1.24 ];
  heavy "heap median 1.20 exactly" true
    [ 1.20; 1.20; 1.20; 1.20; 1.30; 1.30; 1.30 ];
  passes "faster but heavier: the heap rule alone fails it" false
    (List.map (fun _ -> 1.2) ones)
    ~heap:(List.map (fun _ -> 1.3) ones);
  match G.verdict (pairs ~heap:(List.map (fun _ -> 1.1) ones) ones) with
  | Ok summary ->
      Alcotest.(check bool) "the summary prints the median heap ratio" true
        (String.ends_with ~suffix:"median heap ratio 1.100, heavier in 7/7" summary)
  | Error why -> Alcotest.failf "expected a pass, got %s" why

let result_line ?(heap = true) ?(p50 = true) ?(luts = true) correct =
  Printf.sprintf
    "workload paper_grid  seed 100  seconds 5  trace 0\n\
    \  cells_per_s   71.3 1/s\n\
     {\"correct\": %b, \"attempted\": 420, \"failed\": 0, \"metrics\": \
     {\"setup_s\": {\"value\": 0.1, \"unit\": \"s\"}, \"cells_per_s\": \
     {\"value\": 71.25, \"unit\": \"1/s\"}%s%s, \"cell_ms_p95\": \
     {\"value\": 41, \"unit\": \"ms\"}%s, \"model_ffs\": \
     {\"value\": 22028397.0, \"unit\": \"count\"}}}\n"
    correct
    (if heap then ", \"heap_peak_mb\": {\"value\": 14.8, \"unit\": \"MiB\"}" else "")
    (if p50 then ", \"cell_ms_p50\": {\"value\": 12.5, \"unit\": \"ms\"}" else "")
    (if luts then ", \"model_luts\": {\"value\": 92436438, \"unit\": \"count\"}" else "")

let test_sides () =
  (match G.side ~status:0 ~stdout:(result_line true) with
  | Ok r ->
      Alcotest.(check (float 0.0)) "a correct run's cells_per_s" 71.25 r.G.cells_per_s;
      Alcotest.(check (float 0.0)) "a correct run's heap_peak_mb" 14.8 r.G.heap_peak_mb;
      Alcotest.(check (float 0.0)) "a correct run's cell_ms_p50" 12.5 r.G.cell_ms_p50;
      Alcotest.(check (float 0.0)) "an integer cell_ms_p95" 41.0 r.G.cell_ms_p95;
      Alcotest.(check (float 0.0)) "an integer model_luts" 92436438.0 r.G.model_luts;
      Alcotest.(check (float 0.0)) "a run's model_ffs" 22028397.0 r.G.model_ffs
  | Error e -> Alcotest.failf "a correct run does not count: %s" e);
  Alcotest.(check (result unit string))
    "a run without model_luts does not count" (Error "reported no model_luts")
    (Result.map ignore (G.side ~status:0 ~stdout:(result_line ~luts:false true)));
  Alcotest.(check (result unit string))
    "a run without heap_peak_mb does not count" (Error "reported no heap_peak_mb")
    (Result.map ignore (G.side ~status:0 ~stdout:(result_line ~heap:false true)));
  Alcotest.(check (result unit string))
    "a run without cell_ms_p50 does not count" (Error "reported no cell_ms_p50")
    (Result.map ignore (G.side ~status:0 ~stdout:(result_line ~p50:false true)));
  let broken =
    [
      ("correct: false", G.side ~status:0 ~stdout:(result_line false));
      ("no result line", G.side ~status:0 ~stdout:"workload paper_grid\n");
      ("a truncated line", G.side ~status:0 ~stdout:"{\"correct\": true, \"met");
      ("a non-zero exit", G.side ~status:1 ~stdout:(result_line true));
      ("a timed-out run", G.side ~status:124 ~stdout:(result_line true));
    ]
  in
  Alcotest.(check (result unit string))
    "timeout's status reads as timed out" (Error "timed out")
    (Result.map ignore (G.side ~status:124 ~stdout:""));
  List.iter
    (fun (name, side) ->
      Alcotest.(check bool) (name ^ " does not count") true (Result.is_error side);
      let ps = pairs [ 1.0; 1.0; 1.0; 1.0; 1.0; 1.0; 1.0 ] in
      let on_base = List.mapi (fun i p -> if i = 3 then { p with G.base = side } else p) ps in
      let on_change = List.mapi (fun i p -> if i = 5 then { p with G.change = side } else p) ps in
      Alcotest.(check bool) (name ^ " on the base fails") false (Result.is_ok (G.verdict on_base));
      Alcotest.(check bool) (name ^ " on the change fails") false
        (Result.is_ok (G.verdict on_change)))
    broken

(* same seed, same cells: the model figures must match exactly, so one
   pair whose LUTs or FFs moved fails the workload however fast it ran *)
let test_model () =
  let ones = [ 1.0; 1.0; 1.0; 1.0; 1.0; 1.0; 1.0 ] in
  let with_change i change =
    List.mapi (fun j p -> if j = i then { p with G.change } else p)
  in
  Alcotest.(check bool) "identical figures pass" true
    (Result.is_ok (G.verdict (pairs ones)));
  let luts = with_change 2 (run ~luts:9001.0 150.0 20.0) (pairs ones) in
  Alcotest.(check bool) "a LUT moved in one pair" true
    (G.model_differs (List.nth luts 2));
  Alcotest.(check (result string string)) "a moved LUT fails a faster change"
    (Error
       "seed 102: the model figures differ, base 9000 LUT / 2000 FF, change \
        9001 LUT / 2000 FF")
    (G.verdict luts);
  Alcotest.(check bool) "an FF moved in one pair fails" false
    (Result.is_ok
       (G.verdict (with_change 6 (run ~ffs:1999.0 100.0 20.0) (pairs ones))));
  Alcotest.(check bool) "a pair that does not count has no model verdict" false
    (G.model_differs { (List.hd (pairs ones)) with G.change = Error "timed out" })

(* latency ratios are change / base per pair, and the report prints their
   medians; a slower latency never changes the verdict *)
let test_latency () =
  let pair i ~p50 ~p95 =
    { G.seed = G.seed i; base = run 100.0 20.0; change = run ~p50 ~p95 100.0 20.0 }
  in
  let ps =
    List.mapi
      (fun i (p50, p95) -> pair i ~p50 ~p95)
      [ (50., 90.); (60., 99.); (55., 180.); (100., 90.); (40., 45.); (75., 135.); (50., 99.) ]
  in
  Alcotest.(check (option (float 1e-9))) "p50 ratio" (Some 1.2) (G.p50_ratio (List.nth ps 1));
  Alcotest.(check (option (float 1e-9))) "p95 ratio" (Some 2.0) (G.p95_ratio (List.nth ps 2));
  Alcotest.(check string) "the medians"
    "median cell_ms_p50 ratio 1.100, cell_ms_p95 ratio 1.100 (reported, not judged)"
    (G.latency ps);
  Alcotest.(check bool) "twice the latency still passes" true
    (Result.is_ok (G.verdict (List.mapi (fun i _ -> pair i ~p50:100. ~p95:180.) ps)));
  Alcotest.(check string) "no counted pair"
    "median cell_ms_p50 ratio -, cell_ms_p95 ratio - (reported, not judged)"
    (G.latency [ { (List.hd ps) with G.change = Error "timed out" } ])

let () =
  Alcotest.run "gate"
    [
      ( "verdict",
        [
          Alcotest.test_case "the eval_slot mutant fails" `Quick test_mutant;
          Alcotest.test_case "an identical clone passes" `Quick test_identical;
          Alcotest.test_case "median and sign test both needed" `Quick test_edges;
          Alcotest.test_case "the heap rule" `Quick test_heap;
          Alcotest.test_case "the model rule" `Quick test_model;
          Alcotest.test_case "runs that do not count fail" `Quick test_sides;
          Alcotest.test_case "latency is reported, not judged" `Quick
            test_latency;
        ] );
    ]
