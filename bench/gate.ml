(* The paired speed gate: is the change in this checkout slower, or its
   heap heavier, than a base revision?

     dune exec bench/gate.exe -- BASE        (make gate BASE=<rev>)

   Run it from the root of the change's checkout.  It extracts BASE into a
   temporary directory with git archive, then runs perfbench/run.py (which
   builds each side from its own sources) on each of Speed_gate.workloads
   (paper_grid, squash_storm and the compile-and-report area_sweep) in
   alternating pairs, prints every pair (with whether its two sides'
   model_luts and model_ffs agree) and each workload's verdict (with its
   median latency ratios, which no rule judges), and exits 1
   when any workload fails Speed_gate's rule, 2 when BASE does not name
   a commit.  Each side run is capped at Speed_gate.side_limit_s
   seconds by timeout(1); a run past it fails its pair.  When the change
   edits perfbench/ or BENCHMARK.json the two sides would run different
   benchmarks: the gate says so and passes. *)

module G = Speed_gate

let q = Filename.quote

(* exit status and standard output of a shell command *)
let capture cmd =
  let out = Filename.temp_file "prevv-gate-" ".out" in
  let status = Sys.command (Printf.sprintf "%s > %s" cmd (q out)) in
  let text = In_channel.with_open_bin out In_channel.input_all in
  Sys.remove out;
  (status, text)

let run_side ~dir ~workload ~seed =
  let status, stdout =
    capture
      (Printf.sprintf
         "cd %s && timeout -k 30 %d python3 perfbench/run.py --workload %s \
          --seed %d --seconds %g --trace 0"
         (q dir) G.side_limit_s (q workload) seed G.seconds)
  in
  G.side ~status ~stdout

let show = function
  | Ok r -> Printf.sprintf "%9.2f %5.1f MiB" r.G.cells_per_s r.G.heap_peak_mb
  | Error e -> e

let workload ~base_dir ~change_dir w =
  let pairs =
    List.init G.n_pairs (fun i ->
        let seed = G.seed i in
        let run dir = run_side ~dir ~workload:w ~seed in
        let base_first = i mod 2 = 0 in
        let base, change =
          if base_first then
            let b = run base_dir in
            (b, run change_dir)
          else
            let c = run change_dir in
            (run base_dir, c)
        in
        let p = { G.seed; base; change } in
        let ratio f =
          match f p with Some r -> Printf.sprintf "%.3f" r | None -> "-"
        in
        let model =
          match (base, change) with
          | Ok _, Ok _ -> if G.model_differs p then "DIFFERS" else "same"
          | _ -> "-"
        in
        Printf.printf
          "%-13s seed %d  %-12s base %s  change %s  ratio %s  heap %s  p50 %s  \
           p95 %s  model %s\n%!"
          w seed
          (if base_first then "base first" else "change first")
          (show base) (show change) (ratio G.ratio) (ratio G.heap_ratio)
          (ratio G.p50_ratio) (ratio G.p95_ratio) model;
        p)
  in
  Printf.printf "%s: %s\n%!" w (G.latency pairs);
  match G.verdict pairs with
  | Ok summary ->
      Printf.printf "%s: %s: pass\n%!" w summary;
      true
  | Error why ->
      Printf.printf "%s: %s: FAIL\n%!" w why;
      false

let () =
  let base =
    match Sys.argv with
    | [| _; base |] -> base
    | _ ->
        prerr_endline "usage: gate.exe BASE";
        exit 2
  in
  let status, sha =
    capture
      (Printf.sprintf "git rev-parse --verify --quiet %s" (q (base ^ "^{commit}")))
  in
  let sha = String.trim sha in
  if status <> 0 || sha = "" then begin
    Printf.eprintf "gate: %S names no commit\n" base;
    exit 2
  end;
  if Sys.command (Printf.sprintf "git diff --quiet %s -- perfbench BENCHMARK.json" sha) <> 0
  then begin
    Printf.printf
      "speed gate: the change edits perfbench/ or BENCHMARK.json, so base %s \
       and the change run different benchmarks; not compared, pass\n"
      sha;
    exit 0
  end;
  let base_dir = Filename.temp_dir "prevv-gate-" "" in
  at_exit (fun () -> ignore (Sys.command ("rm -rf " ^ q base_dir)));
  if Sys.command (Printf.sprintf "git archive %s | tar -x -C %s" sha (q base_dir)) <> 0
  then begin
    Printf.eprintf "gate: cannot extract %s\n" sha;
    exit 2
  end;
  Printf.printf
    "speed gate: change in %s against base %s; %d pairs per workload, %gs \
     runs; a workload fails at median ratio < %.2f with >= %d/%d slower, \
     at median heap ratio > %.2f with >= %d/%d heavier, or when model_luts \
     or model_ffs differ in any pair\n%!"
    (Sys.getcwd ()) sha G.n_pairs G.seconds G.bound G.slower_needed G.n_pairs
    G.heap_bound G.slower_needed G.n_pairs;
  let ok =
    List.fold_left
      (fun ok w -> workload ~base_dir ~change_dir:"." w && ok)
      true G.workloads
  in
  Printf.printf "speed gate: %s\n" (if ok then "pass" else "FAIL");
  if not ok then exit 1
