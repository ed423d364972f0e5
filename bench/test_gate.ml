(* The paired speed gate's verdict on canned pairs: the ratios measured
   for an eval_slot mutant and for an identical clone, the two edges of
   the rule (a slow median alone, a sign-test majority alone), and runs
   that do not count. *)

module G = Speed_gate

let pairs ratios =
  List.mapi
    (fun i r -> { G.seed = G.seed i; base = Ok 100.0; change = Ok (100.0 *. r) })
    ratios

let passes name want ratios =
  Alcotest.(check bool) name want (Result.is_ok (G.verdict (pairs ratios)))

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

let result_line correct =
  Printf.sprintf
    "workload paper_grid  seed 100  seconds 5  trace 0\n\
    \  cells_per_s   71.3 1/s\n\
     {\"correct\": %b, \"attempted\": 420, \"failed\": 0, \"metrics\": \
     {\"setup_s\": {\"value\": 0.1, \"unit\": \"s\"}, \"cells_per_s\": \
     {\"value\": 71.25, \"unit\": \"1/s\"}}}\n"
    correct

let test_sides () =
  Alcotest.(check (result (float 0.0) string))
    "a correct run counts" (Ok 71.25)
    (G.side ~status:0 ~stdout:(result_line true));
  let broken =
    [
      ("correct: false", G.side ~status:0 ~stdout:(result_line false));
      ("no result line", G.side ~status:0 ~stdout:"workload paper_grid\n");
      ("a truncated line", G.side ~status:0 ~stdout:"{\"correct\": true, \"met");
      ("a non-zero exit", G.side ~status:1 ~stdout:(result_line true));
    ]
  in
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

let () =
  Alcotest.run "gate"
    [
      ( "verdict",
        [
          Alcotest.test_case "the eval_slot mutant fails" `Quick test_mutant;
          Alcotest.test_case "an identical clone passes" `Quick test_identical;
          Alcotest.test_case "median and sign test both needed" `Quick test_edges;
          Alcotest.test_case "runs that do not count fail" `Quick test_sides;
        ] );
    ]
