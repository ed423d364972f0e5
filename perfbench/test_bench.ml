(* Seed handling and metric naming of the benchmark: the same seed gives
   the same inputs and deterministic metrics, another seed another stream,
   and every printed metric is the one BENCHMARK.json declares. *)

open Pvbench
module J = Pv_obs.Json

let benchmark_json () =
  let ic = open_in_bin "../BENCHMARK.json" in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match J.parse s with Ok j -> j | Error e -> Alcotest.failf "BENCHMARK.json: %s" e

let field k j =
  match J.member k j with Some v -> v | None -> Alcotest.failf "missing %S" k

let str j = match j with J.Str s -> s | _ -> Alcotest.fail "expected a string"
let list j = match J.to_list_opt j with Some l -> l | None -> Alcotest.fail "expected a list"

let declared section =
  List.map (fun m -> (str (field "name" m), str (field "unit" m))) (list (field section (benchmark_json ())))

let names_match () =
  Alcotest.(check (list (pair string string)))
    "end-to-end metrics" Catalog.end_to_end (declared "end_to_end");
  Alcotest.(check (list (pair string string)))
    "per-layer metrics" Catalog.per_layer (declared "per_layer");
  Alcotest.(check (list string))
    "workloads" Catalog.workloads
    (List.map (fun w -> str (field "name" w)) (list (field "workloads" (benchmark_json ()))))

(* what a cell computes on, as text *)
let inputs (c : Cell.t) =
  let src =
    match c.source with
    | Cell.Kernel k -> Format.asprintf "%a" Pv_kernels.Ast.pp_kernel k
    | Cell.Text { text; _ } -> text
  in
  let init =
    match c.init with
    | None -> ""
    | Some l ->
        String.concat ";"
          (List.map
             (fun (a, v) -> a ^ "=" ^ String.concat "," (Array.to_list (Array.map string_of_int v)))
             l)
  in
  String.concat "|" [ c.label; src; init ]

let grid_inputs w seed = Array.to_list (Array.map inputs (Workloads.cells w seed))
let stream seed = Array.to_list (Array.map (fun (q : Serve.req) -> (q.due_ns, q.line)) (Serve.stream ~seed ~rounds:1))

let same_seed_same_inputs () =
  List.iter
    (fun w ->
      Alcotest.(check (list string)) (w ^ ": same seed") (grid_inputs w 7) (grid_inputs w 7);
      Alcotest.(check bool) (w ^ ": another seed") false (grid_inputs w 7 = grid_inputs w 8))
    [ "paper_grid"; "squash_storm"; "area_sweep" ];
  Alcotest.(check (list (pair int string))) "serve stream: same seed" (stream 7) (stream 7);
  Alcotest.(check bool) "serve stream: another seed" false (stream 7 = stream 8)

(* the deterministic figures of one pass: cycles, LUTs, FFs, failed ops *)
let one_pass w seed =
  let t = Runner.tally () in
  Runner.pass t (Workloads.cells w seed);
  Alcotest.(check (list string)) (w ^ ": no violations") [] t.problems;
  t

let deterministic () =
  List.iter
    (fun w ->
      let figures (t : Runner.tally) = [ t.cycles; t.luts; t.ffs; t.failed ] in
      Alcotest.(check (list int)) (w ^ ": repeatable") (figures (one_pass w 3)) (figures (one_pass w 3)))
    [ "squash_storm"; "area_sweep" ];
  let t = one_pass "paper_grid" 3 in
  Alcotest.(check (float 1e-9)) "paper_err_pct" Reference.paper_err_pct (Runner.paper_err_pct t.first)

let () =
  Alcotest.run "perfbench"
    [
      ( "seed",
        [
          Alcotest.test_case "metric names match BENCHMARK.json" `Quick names_match;
          Alcotest.test_case "same seed, same inputs" `Quick same_seed_same_inputs;
          Alcotest.test_case "deterministic metrics repeat" `Slow deterministic;
        ] );
    ]
