(* The repository benchmark.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
     bench.exe --print-reference

   Prints a text report, then as its last line one JSON object
   {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
   with --trace 0, the per-layer metrics with --trace 1.  Exits 1 when any
   output is incorrect, 2 on bad arguments.  README.md describes the
   workloads and metrics. *)

let t_start = Pvbench.Mono.now ()

module Catalog = Pvbench.Catalog
module Runner = Pvbench.Runner
module J = Pv_obs.Json

let usage () =
  prerr_endline
    "usage: bench.exe --workload (paper_grid|squash_storm|area_sweep|serve_open) \
     --seed N --seconds S --trace 0|1\n       bench.exe --print-reference";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | "--workload" :: w :: rest -> workload := Some w; go rest
    | "--seed" :: n :: rest -> seed := int_of_string_opt n; go rest
    | "--seconds" :: s :: rest -> seconds := float_of_string_opt s; go rest
    | "--trace" :: ("0" | "1" as t) :: rest -> trace := Some (t = "1"); go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some seed, Some seconds, Some trace
    when List.mem w Catalog.workloads && seconds > 0.0 ->
      { Runner.workload = w; seed; seconds; trace }
  | _ -> usage ()

(* every fixed cell's cycle count and the paper-grid drift figure, as the
   source of reference.ml *)
let print_reference () =
  let cells =
    Array.to_list (Pvbench.Workloads.paper_cells 0)
    @ List.filter
        (fun (c : Pvbench.Cell.t) -> not (String.starts_with ~prefix:"gen" c.label))
        (Array.to_list (Pvbench.Workloads.storm_cells 0))
  in
  let t = Runner.tally () in
  let results =
    List.map
      (fun (c : Pvbench.Cell.t) ->
        let c = { c with ref_cycles = None } in
        let r = Runner.run_cell c in
        Runner.record t c 0 r;
        match r with
        | Ok r -> Some (c.label, r.cycles)
        | Error (Failed _) -> None
        | Error (Violation m) -> failwith m)
      cells
    |> List.filter_map Fun.id
  in
  let results = List.sort compare results in
  print_string "let table =\n  [\n";
  List.iter (fun (l, n) -> Printf.printf "    (%S, %d);\n" l n) results;
  print_string "  ]\n\n";
  Printf.printf "let paper_err_pct = %.17g\n" (Runner.paper_err_pct t.first)

let spans_dir = Filename.concat "perfbench" "_out"

let write_spans (o : Runner.opts) sp =
  try
    if not (Sys.file_exists spans_dir) then Sys.mkdir spans_dir 0o755;
    let path = Filename.concat spans_dir (Printf.sprintf "spans-%s-%d.json" o.workload o.seed) in
    Pvbench.Spans.write_chrome path (Pvbench.Spans.all sp);
    Printf.printf "spans written to %s\n" path
  with Sys_error e -> Printf.printf "spans not written: %s\n" e

let () =
  if Array.length Sys.argv = 2 && Sys.argv.(1) = "--print-reference" then print_reference ()
  else begin
    let o = parse_args () in
    let out =
      if o.workload = "serve_open" then Runner.serve o ~t_start else Runner.grid o ~t_start
    in
    let catalog = if o.trace then Catalog.per_layer else Catalog.end_to_end in
    let names = List.map fst out.metrics in
    if List.sort compare names <> List.sort compare (List.map fst catalog) then begin
      prerr_endline "internal error: the measured metrics do not match the catalogue";
      exit 3
    end;
    Printf.printf "workload %s  seed %d  seconds %g  trace %d\n" o.workload o.seed o.seconds
      (if o.trace then 1 else 0);
    List.iter
      (fun (name, unit) -> Printf.printf "  %-32s %14.6g %s\n" name (List.assoc name out.metrics) unit)
      catalog;
    List.iter (fun (name, v, unit) -> Printf.printf "  %-32s %14.6g %s\n" name v unit) out.extra;
    List.iter (Printf.printf "  failed: %s\n") out.failures;
    List.iter (Printf.printf "  VIOLATION: %s\n") out.problems;
    Option.iter (write_spans o) out.spans;
    let finite = List.for_all (fun (_, v) -> Float.is_finite v) out.metrics in
    if not finite then print_endline "  VIOLATION: a metric is not a finite number";
    let correct = out.correct && finite && out.attempted > 0 in
    let metric (name, unit) =
      let v = List.assoc name out.metrics in
      (name, J.Obj [ ("value", if Float.is_finite v then J.Float v else J.Null); ("unit", J.Str unit) ])
    in
    print_endline
      (J.to_string
         (J.Obj
            [
              ("correct", J.Bool correct);
              ("attempted", J.Int out.attempted);
              ("failed", J.Int out.failed);
              ("metrics", J.Obj (List.map metric catalog));
            ]));
    exit (if correct then 0 else 1)
  end
