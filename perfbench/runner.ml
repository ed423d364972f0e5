(* Measurement: set-up, closed-loop passes over a grid workload's cells or
   the open-loop serve stream, correctness checks, and the metric values. *)

open Pv_core
module Memif = Pv_dataflow.Memif

type opts = { workload : string; seed : int; seconds : float; trace : bool }

type out = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;  (** the catalogue's list for the mode *)
  extra : (string * float * string) list;
      (** workload-specific figures printed in the text report only *)
  problems : string list;  (** correctness violations *)
  failures : string list;  (** distinct messages of failed ops *)
  spans : Spans.t option;  (** the traced run's spans *)
}

(* set-up is repeated and its median reported *)
let setup_reps = 9

(* ten samples beyond p95 *)
let min_samples = 220

let heap_peak_mb () =
  let from_proc =
    try
      let ic = open_in "/proc/self/status" in
      let rec find () =
        match input_line ic with
        | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb -> Some kb)
        | _ -> find ()
        | exception End_of_file -> None
      in
      let r = find () in
      close_in ic;
      r
    with Sys_error _ -> None
  in
  match from_proc with
  | Some kb -> float_of_int kb /. 1024.0
  | None -> float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* ------------------------------------------------------------------ *)
(* Tallies over passes                                                 *)
(* ------------------------------------------------------------------ *)

type tally = {
  mutable passes : int;
  mutable wall_ns : int;
  mutable pass_ns : float list;  (** wall time of each pass, at reference speed *)
  mutable speeds : float list;  (** each pass's scale factor to reference speed *)
  mutable attempted : int;
  mutable failed : int;
  mutable lat_ms : float list;  (** completed cells only, at reference speed *)
  mutable cycles : int;
  mutable evals : int;
  mutable luts : int;
  mutable ffs : int;
  mutable nodes : int;
  mutable compiled : int;
  stats : Memif.stats;
  phases : int array;
  mutable fail_msgs : string list;
  mutable problems : string list;
  first : (string, Cell.result) Hashtbl.t;
      (** label -> its first result: every later pass must reproduce its
          cycles, LUTs and FFs *)
}

let tally () =
  {
    passes = 0;
    wall_ns = 0;
    pass_ns = [];
    speeds = [];
    attempted = 0;
    failed = 0;
    lat_ms = [];
    cycles = 0;
    evals = 0;
    luts = 0;
    ffs = 0;
    nodes = 0;
    compiled = 0;
    stats = Memif.fresh_stats ();
    phases = Array.make Pv_obs.Prof.n_phases 0;
    fail_msgs = [];
    problems = [];
    first = Hashtbl.create 256;
  }

let add_stats (a : Memif.stats) (b : Memif.stats) =
  a.loads <- a.loads + b.loads;
  a.stores <- a.stores + b.stores;
  a.squashes <- a.squashes + b.squashes;
  a.replayed_ops <- a.replayed_ops + b.replayed_ops;
  a.stall_full <- a.stall_full + b.stall_full;
  a.stall_alloc <- a.stall_alloc + b.stall_alloc;
  a.stall_order <- a.stall_order + b.stall_order;
  a.stall_bw <- a.stall_bw + b.stall_bw;
  a.forwarded <- a.forwarded + b.forwarded

let note_fail t msg =
  t.failed <- t.failed + 1;
  if not (List.mem msg t.fail_msgs) then t.fail_msgs <- msg :: t.fail_msgs

let violation t msg =
  if not (List.mem msg t.problems) then t.problems <- msg :: t.problems

let record t (c : Cell.t) ns r =
  t.attempted <- t.attempted + 1;
  match r with
  | Error (Cell.Failed m) -> note_fail t m
  | Error (Cell.Violation m) ->
      note_fail t m;
      violation t m
  | Ok (r : Cell.result) ->
      t.lat_ms <- Mono.ms_of_ns ns :: t.lat_ms;
      let luts = Cell.luts r and ffs = Cell.ffs r in
      (match Hashtbl.find_opt t.first c.label with
      | None -> Hashtbl.add t.first c.label r
      | Some p when (p.cycles, Cell.luts p, Cell.ffs p) <> (r.cycles, luts, ffs) ->
          violation t (c.label ^ ": result differs between passes")
      | Some _ -> ());
      t.cycles <- t.cycles + r.cycles;
      t.evals <- t.evals + r.evals;
      t.luts <- t.luts + luts;
      t.ffs <- t.ffs + ffs;
      t.nodes <- t.nodes + r.nodes;
      t.compiled <- t.compiled + 1;
      Option.iter (add_stats t.stats) r.stats;
      Array.iteri (fun i v -> t.phases.(i) <- t.phases.(i) + v) r.phases

let run_cell ?tr c =
  match Cell.run ?tr c with
  | r -> r
  | exception e -> Error (Cell.Failed (c.Cell.label ^ ": " ^ Printexc.to_string e))

(* One pass over [cells]; with [spans] every cell is a traced root span.
   [speed ()], called when the pass ends, gives the factor that scales the
   pass's host times to reference speed (see {!Calib}). *)
let pass ?spans ?(speed = fun () -> 1.0) t cells =
  let lat0 = t.lat_ms in
  t.lat_ms <- [];
  let t_pass = Mono.now () in
  Array.iter
    (fun (c : Cell.t) ->
      match spans with
      | None ->
          let t0 = Mono.now () in
          let r = run_cell c in
          record t c (Mono.now () - t0) r
      | Some sp ->
          let id = Spans.fresh sp in
          let t0 = Mono.now () in
          let r = run_cell ~tr:(sp, id, id) c in
          let dur = Mono.now () - t0 in
          Spans.add sp
            { Spans.id; parent = -1; rid = id; name = "cell"; t0; dur; count = 1 };
          record t c dur r)
    cells;
  let ns = Mono.now () - t_pass in
  let f = speed () in
  t.wall_ns <- t.wall_ns + ns;
  t.pass_ns <- (float_of_int ns *. f) :: t.pass_ns;
  t.speeds <- f :: t.speeds;
  t.lat_ms <- List.rev_append (List.rev_map (fun ms -> ms *. f) t.lat_ms) lat0;
  t.passes <- t.passes + 1

(* passes until [seconds] have elapsed and enough latency samples exist
   (hard stop at three times the budget); a calibration runs between
   passes, and each pass is scaled by the mean of the two around it *)
let passes ?spans ~seconds t cells =
  let t0 = Mono.now () in
  let elapsed () = Mono.s_of_ns (Mono.now () - t0) in
  let continue () =
    t.passes = 0
    || (elapsed () < 3.0 *. seconds +. 10.0
       && (elapsed () < seconds || List.length t.lat_ms < min_samples))
  in
  let before = ref (Calib.time ()) in
  while continue () do
    pass ?spans t cells ~speed:(fun () ->
        let after = Calib.time () in
        let f = Calib.factor ~before:!before ~after in
        before := after;
        f)
  done

(* ------------------------------------------------------------------ *)
(* Checks on the paper grid                                            *)
(* ------------------------------------------------------------------ *)

(* the six headline geomeans of Tables I/II against [8] (fast-lsq), in % *)
let paper_headlines = [ -43.75; -26.45; -44.70; -33.54; 10.79; -2.64 ]

(* nan when a paper cell did not complete *)
let paper_err_pct (first : (string, Cell.result) Hashtbl.t) =
  let kernels = List.map (fun k -> k.Pv_kernels.Ast.name) (Pv_kernels.Defs.paper_benchmarks ()) in
  let get k s = Hashtbl.find first (k ^ "/" ^ s) in
  let rep (r : Cell.result) = List.hd r.reports in
  let exec (r : Cell.result) =
    Pv_resource.Timing.exec_time_us ~cycles:r.cycles ~cp_ns:(rep r).Pv_resource.Report.cp_ns
  in
  let geo f = 100.0 *. (Experiment.geomean (List.map f kernels) -. 1.0) in
  let ratio a b = float_of_int a /. float_of_int b in
  let ours () =
    [
      geo (fun k -> ratio (rep (get k "prevv16")).luts (rep (get k "fast-lsq")).luts);
      geo (fun k -> ratio (rep (get k "prevv64")).luts (rep (get k "fast-lsq")).luts);
      geo (fun k -> ratio (rep (get k "prevv16")).ffs (rep (get k "fast-lsq")).ffs);
      geo (fun k -> ratio (rep (get k "prevv64")).ffs (rep (get k "fast-lsq")).ffs);
      geo (fun k -> ratio (get k "prevv16").cycles (get k "fast-lsq").cycles);
      geo (fun k -> exec (get k "prevv64") /. exec (get k "fast-lsq"));
    ]
  in
  match ours () with
  | exception Not_found -> nan
  | ours -> List.fold_left2 (fun acc a b -> acc +. Float.abs (a -. b)) 0.0 ours paper_headlines /. 6.0

(* oracle <= prevv* <= dynamatic <= serial on every paper kernel *)
let bound_chain t =
  List.iter
    (fun k ->
      let name = k.Pv_kernels.Ast.name in
      let cyc s = Option.map (fun (r : Cell.result) -> r.cycles) (Hashtbl.find_opt t.first (name ^ "/" ^ s)) in
      match List.map cyc [ "oracle"; "prevv16"; "prevv64"; "dynamatic"; "serial" ] with
      | [ Some o; Some p16; Some p64; Some d; Some s ] ->
          if not (o <= p16 && o <= p64 && p16 <= d && p64 <= d && d <= s) then
            violation t
              (Printf.sprintf "%s: bound chain broken (oracle %d, prevv16 %d, prevv64 %d, dynamatic %d, serial %d)"
                 name o p16 p64 d s)
      | _ -> violation t (name ^ ": bound chain incomplete"))
    (Pv_kernels.Defs.paper_benchmarks ())

(* ------------------------------------------------------------------ *)
(* Per-layer figures from spans                                        *)
(* ------------------------------------------------------------------ *)

let layer_metrics ~(t : tally) ~spans =
  let all = Spans.self_times (Spans.all spans) in
  let passes = float_of_int (max 1 t.passes) in
  (* per cell: the self times of its spans must add up to its wall time,
     and none may be negative (children outlasting their parent) *)
  let by_cell = Hashtbl.create 256 in
  List.iter
    (fun ((s : Spans.span), self) ->
      Hashtbl.replace by_cell s.rid (self + Option.value (Hashtbl.find_opt by_cell s.rid) ~default:0))
    all;
  let negative =
    List.exists (fun (_, self) -> self < 0) all
    || List.exists
         (fun ((s : Spans.span), _) -> s.parent < 0 && Hashtbl.find by_cell s.rid <> s.dur)
         all
  in
  let durs name =
    Array.of_list
      (List.filter_map
         (fun ((s : Spans.span), _) -> if s.name = name then Some (float_of_int s.dur) else None)
         all)
  in
  let p50_us name =
    let d = durs name in
    if Array.length d = 0 then 0.0 else Stats.median d /. 1e3
  in
  let sum f = List.fold_left (fun acc (s, self) -> acc + f s self) 0 all in
  let prefixed p (s : Spans.span) =
    String.length s.name > String.length p && String.sub s.name 0 (String.length p + 1) = p ^ "."
  in
  let family_ns fam = sum (fun s _ -> if prefixed fam s then s.dur else 0) in
  let family_calls fam = sum (fun s _ -> if prefixed fam s then s.count else 0) in
  let per_call fam =
    let c = family_calls fam in
    if c = 0 then 0.0 else float_of_int (family_ns fam) /. float_of_int c
  in
  let backend_ns =
    List.fold_left ( + ) 0
      (List.map family_ns [ "prevv.backend"; "lsq"; "bounds.oracle"; "bounds.serial" ])
  in
  let clock_ns =
    sum (fun s _ ->
        if Filename.extension s.name = ".clock" && s.count > 0 && s.parent >= 0 then s.dur else 0)
  in
  let sim_self = sum (fun s self -> if s.name = "dataflow.sim" then self else 0) in
  let roots = List.filter (fun ((s : Spans.span), _) -> s.parent < 0) all in
  let root_wall = List.fold_left (fun a ((s : Spans.span), _) -> a + s.dur) 0 roots in
  let root_self = List.fold_left (fun a (_, self) -> a + self) 0 roots in
  let ms_per_pass ns = Mono.ms_of_ns ns /. passes in
  let per_pass n = float_of_int n /. passes in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let st = t.stats in
  let ph i = per_pass t.phases.(i) in
  let module P = Pv_obs.Prof in
  ( negative,
    [
      ("dataflow.sim.self_ms", ms_per_pass sim_self);
      ("dataflow.sim.ns_per_cycle", ratio sim_self t.cycles);
      ("dataflow.sim.ns_per_eval", ratio sim_self t.evals);
      ("dataflow.sim.evals_per_cycle", ratio t.evals t.cycles);
      ("dataflow.sim.cycles", per_pass t.cycles);
      ("prevv.backend.self_ms", ms_per_pass (family_ns "prevv.backend"));
      ("prevv.backend.ns_per_call", per_call "prevv.backend");
      ("backend.clock_share", ratio clock_ns backend_ns);
      ("prof.arbiter_scan", ph P.phase_arbiter_scan);
      ("prof.pq_validate", ph P.phase_pq_validate);
      ("backend.squashes", per_pass st.squashes);
      ("backend.replayed_ops", per_pass st.replayed_ops);
      ( "backend.useful_share",
        if st.loads + st.stores = 0 then 0.0
        else 1.0 -. ratio st.replayed_ops (st.loads + st.stores) );
      ("backend.stall_full", per_pass st.stall_full);
      ("backend.stall_order", per_pass st.stall_order);
      ("backend.stall_bw", per_pass st.stall_bw);
      ("backend.stall_alloc", per_pass st.stall_alloc);
      ("lsq.self_ms", ms_per_pass (family_ns "lsq"));
      ("lsq.ns_per_call", per_call "lsq");
      ("prof.lsq_cam", ph P.phase_lsq_cam);
      ("backend.forwarded", per_pass st.forwarded);
      ("bounds.oracle.self_ms", ms_per_pass (family_ns "bounds.oracle"));
      ("bounds.serial.self_ms", ms_per_pass (family_ns "bounds.serial"));
      ("kernels.parse.us_p50", p50_us "kernels.parse");
      ("frontend.depend.us_p50", p50_us "frontend.depend");
      ("frontend.trace.us_p50", p50_us "frontend.trace");
      ("frontend.build.us_p50", p50_us "frontend.build");
      ("memory.layout.us_p50", p50_us "memory.layout");
      ("dataflow.graph.nodes", ratio t.nodes t.compiled);
      ("resource.report.us_p50", p50_us "resource.report");
      ("core.scheme.make.us_p50", p50_us "core.scheme.make");
      ("core.verify.ms_total", ms_per_pass (sum (fun s _ -> if s.name = "core.verify" then s.dur else 0)));
      ("prof.mem_service", ph P.phase_mem_service);
      ("prof.circuit_sweep", ph P.phase_circuit_sweep);
      ("trace.residual_share", ratio root_self root_wall);
    ] )

(* ------------------------------------------------------------------ *)
(* Grid workloads                                                      *)
(* ------------------------------------------------------------------ *)

(* The first sample runs from process start ([t_start]), so it also
   covers runtime and registry initialisation. *)
let time_setup ~t_start build =
  let samples =
    Array.init setup_reps (fun i ->
        let t0 = if i = 0 then t_start else Mono.now () in
        let x = build () in
        (Mono.s_of_ns (Mono.now () - t0), x))
  in
  (Stats.median (Array.map fst samples), snd samples.(setup_reps - 1))

let gc_delta f =
  let g0 = Gc.quick_stat () in
  let r = f () in
  let g1 = Gc.quick_stat () in
  (r, g1.Gc.minor_words -. g0.Gc.minor_words, g1.Gc.major_collections - g0.Gc.major_collections)

let zero_serve_metrics =
  [
    ("service.internal_ms_p50", 0.0);
    ("service.internal_ms_p95", 0.0);
    ("service.queue_depth_max", 0.0);
    ("service.dedup_hits", 0.0);
    ("service.retries", 0.0);
    ("parallel.cache.hit_share", 0.0);
    ("loadgen.late_ms_p95", 0.0);
    ("loadgen.achieved_rps", 0.0);
  ]

let grid (o : opts) ~t_start =
  let setup_s, cells =
    time_setup ~t_start (fun () ->
        let cells = Workloads.cells o.workload o.seed in
        ignore (run_cell (Workloads.warmup o.workload));
        cells)
  in
  let setup_s =
    let c = Calib.time () in
    setup_s *. Calib.factor ~before:c ~after:c
  in
  let untimed = tally () in
  let seconds = if o.trace then o.seconds /. 2.0 else o.seconds in
  let (), minor, majors = gc_delta (fun () -> passes ~seconds untimed cells) in
  let lat = Array.of_list untimed.lat_ms in
  let per_pass n = float_of_int n /. float_of_int untimed.passes in
  let paper = o.workload = "paper_grid" in
  if paper then bound_chain untimed;
  let err = if paper then paper_err_pct untimed.first else nan in
  if paper && not (Float.abs (err -. Reference.paper_err_pct) < 1e-6) then
    violation untimed
      (Printf.sprintf "paper_err_pct %.6f drifted from the reference %.6f" err
         Reference.paper_err_pct);
  let extra =
    [ ("sim_cycles", per_pass untimed.cycles, "cycles");
      ("failed_share", float_of_int untimed.failed /. float_of_int untimed.attempted, "ratio");
      ("cells_measured", float_of_int (Array.length lat), "count");
      ("samples_beyond_p95", float_of_int (Stats.beyond lat 0.95), "count");
      ("passes", float_of_int untimed.passes, "count");
      ("host_speed_factor", Stats.median (Array.of_list untimed.speeds), "ratio") ]
    @ if paper then [ ("paper_err_pct", err, "pct-points") ] else []
  in
  let metrics, traced_problems, traced =
    if not o.trace then
      ( [
          ("setup_s", setup_s);
          (* every pass runs the same cells: the median pass sets the rate,
             so a short disturbance of the host moves it little *)
          ( "cells_per_s",
            per_pass untimed.attempted /. (Stats.median (Array.of_list untimed.pass_ns) /. 1e9) );
          ("cell_ms_p50", Stats.quantile lat 0.50);
          ("cell_ms_p95", Stats.quantile lat 0.95);
          ("heap_peak_mb", heap_peak_mb ());
          ("model_luts", per_pass untimed.luts);
          ("model_ffs", per_pass untimed.ffs);
        ],
        [],
        None )
    else begin
      let spans = Spans.create () in
      let t = tally () in
      passes ~spans ~seconds t cells;
      let negative, layers = layer_metrics ~t ~spans in
      let wall_per_pass (x : tally) = Stats.median (Array.of_list x.pass_ns) in
      let problems =
        (if negative then [ "trace: span self times do not add up to a cell's wall time" ] else [])
        @ t.problems
      in
      ( layers
        @ zero_serve_metrics
        @ [
            ("ocaml.gc.minor_words_per_cell", minor /. float_of_int untimed.attempted);
            ("ocaml.gc.major_collections", float_of_int majors);
            ("trace.overhead_share", (wall_per_pass t /. wall_per_pass untimed) -. 1.0);
            ("bench.failed_share", float_of_int untimed.failed /. float_of_int untimed.attempted);
          ],
        problems,
        Some spans )
    end
  in
  let problems = untimed.problems @ traced_problems in
  {
    correct = problems = [];
    attempted = untimed.attempted;
    failed = untimed.failed;
    metrics;
    extra;
    problems;
    failures = untimed.fail_msgs;
    spans = traced;
  }

(* ------------------------------------------------------------------ *)
(* serve_open                                                          *)
(* ------------------------------------------------------------------ *)

(* the open-loop phase takes this share of the run; the capacity runs
   (the same stream offered at once, each a fraction as long) the rest *)
let open_share = 0.6

(* capacity runs per run; the median is reported *)
let capacity_reps = 5

(* the generator fell behind: the run does not measure the offered rate *)
let max_late_ms_p95 = 50.0

let serve_jobs () = max 1 (min 4 (Domain.recommended_domain_count ()))

let serve (o : opts) ~t_start =
  (* whole rounds, at least [min_samples] requests *)
  let rounds =
    max
      ((min_samples + Serve.round_len - 1) / Serve.round_len)
      (int_of_float (Float.round (Serve.rate_rps *. open_share *. o.seconds /. float_of_int Serve.round_len)))
  in
  let warm = [| (Serve.stream ~seed:0 ~rounds:1).(0) |] in
  let setup_s, stream =
    time_setup ~t_start (fun () ->
        let s = Serve.stream ~seed:o.seed ~rounds in
        ignore (Serve.drive ~jobs:1 ~paced:false warm);
        s)
  in
  let jobs = serve_jobs () in
  (* Serve phases are not scaled to reference speed: no calibration tried
     followed the two-worker service (see README.md). *)
  let open_run = Serve.drive ~jobs ~paced:true stream in
  let cap_runs = List.init capacity_reps (fun _ -> Serve.drive ~jobs ~paced:false stream) in
  let inline = Serve.drive ~jobs:1 ~paced:false stream in
  let lat_ms = open_run.lat_ms in
  let problems = ref [] in
  let bad m = problems := m :: !problems in
  let traced = ref None in
  let failed = ref 0 in
  List.iter
    (fun (what, (r : Serve.run)) ->
      let s = r.summary in
      let lost = s.Service.shed + s.errors + s.bad_requests + s.lost in
      if what <> "inline replay" then failed := !failed + lost;
      if s.lost <> 0 then bad (Printf.sprintf "%s: %d responses lost" what s.lost);
      if what <> "inline replay" && r.bodies <> inline.bodies then
        bad (what ^ ": response bodies differ from the inline replay"))
    ((("open loop", open_run) :: List.map (fun r -> ("capacity", r)) cap_runs)
    @ [ ("inline replay", inline) ]);
  let late_p95 = Stats.quantile open_run.late_ms 0.95 in
  if late_p95 > max_late_ms_p95 then
    bad (Printf.sprintf "open loop invalid: generator late by %.1f ms at p95" late_p95);
  let models = Array.map Serve.response_model inline.bodies in
  let model f = Array.fold_left (fun acc m -> acc + Option.fold ~none:0 ~some:f m) 0 models in
  let offered = float_of_int (Array.length stream) in
  let attempted = (1 + capacity_reps) * Array.length stream in
  let capacity =
    Stats.median
      (Array.of_list (List.map (fun (r : Serve.run) -> offered /. r.wall_s) cap_runs))
  in
  let extra =
    [
      ("req_ms_p50", Stats.quantile lat_ms 0.50, "ms");
      ("req_ms_p95", Stats.quantile lat_ms 0.95, "ms");
      ("serve_capacity_rps", capacity, "1/s");
      ("offered_rps", Serve.rate_rps, "1/s");
      ("requests", offered, "count");
      ("samples_beyond_p95", float_of_int (Stats.beyond lat_ms 0.95), "count");
      ("sim_cycles", float_of_int (model (fun (c, _, _) -> c)), "cycles");
      ("failed_share", float_of_int !failed /. float_of_int attempted, "ratio");
      ("service_p50_ms", open_run.summary.Service.p50_ms, "ms");
      ("service_p95_ms", open_run.summary.Service.p95_ms, "ms");
    ]
  in
  let metrics =
    if not o.trace then
      [
        ("setup_s", setup_s);
        ("cells_per_s", capacity);
        ("cell_ms_p50", Stats.quantile lat_ms 0.50);
        ("cell_ms_p95", Stats.quantile lat_ms 0.95);
        ("heap_peak_mb", heap_peak_mb ());
        ("model_luts", float_of_int (model (fun (_, l, _) -> l)));
        ("model_ffs", float_of_int (model (fun (_, _, f) -> f)));
      ]
    else begin
      (* Layer split of the service's compute mix: each distinct request
         rebuilt as a cell and run on this domain, untraced then traced.
         Its results must match the service's own response bodies. *)
      let distinct = Hashtbl.create 256 in
      let cells =
        Array.to_list stream
        |> List.filter (fun (q : Serve.req) ->
               let k = Service.request_key q.request in
               let fresh = not (Hashtbl.mem distinct k) in
               Hashtbl.replace distinct k ();
               fresh)
        |> List.map (fun (q : Serve.req) -> Serve.cell_of q.request)
        |> Array.of_list
      in
      let untraced = tally () in
      let (), minor, majors = gc_delta (fun () -> pass untraced cells) in
      let spans = Spans.create () in
      let t = tally () in
      pass ~spans t cells;
      traced := Some spans;
      Hashtbl.iter
        (fun label (r : Cell.result) ->
          let i = int_of_string (String.sub label 1 (String.length label - 1)) in
          match models.(i) with
          | Some m when m = (r.cycles, Cell.luts r, Cell.ffs r) -> ()
          | _ -> bad (label ^ ": rebuilt cell disagrees with the service's response"))
        t.first;
      List.iter bad (untraced.problems @ t.problems);
      let negative, layers = layer_metrics ~t ~spans in
      if negative then bad "trace: span self times do not add up to a cell's wall time";
      let s = open_run.summary in
      let hits = s.Service.cache_hits and misses = s.cache_misses in
      layers
      @ [
          ("service.internal_ms_p50", s.p50_ms);
          ("service.internal_ms_p95", s.p95_ms);
          ( "service.queue_depth_max",
            float_of_int (Pv_obs.Metrics.gauge_value open_run.metrics "serve.queue_depth_max") );
          ("service.dedup_hits", float_of_int s.dedup_hits);
          ("service.retries", float_of_int s.retries);
          ( "parallel.cache.hit_share",
            if hits + misses = 0 then 0.0 else float_of_int hits /. float_of_int (hits + misses) );
          ("ocaml.gc.minor_words_per_cell", minor /. float_of_int (Array.length cells));
          ("ocaml.gc.major_collections", float_of_int majors);
          ("loadgen.late_ms_p95", late_p95);
          ("loadgen.achieved_rps", offered /. open_run.dispatch_s);
          ( "trace.overhead_share",
            (float_of_int t.wall_ns /. float_of_int untraced.wall_ns) -. 1.0 );
          ("bench.failed_share", float_of_int !failed /. float_of_int attempted);
        ]
    end
  in
  let problems = List.rev !problems in
  {
    correct = problems = [];
    attempted;
    failed = !failed;
    metrics;
    extra;
    problems;
    failures =
      (if !failed > 0 then [ Printf.sprintf "%d requests shed, failed or lost" !failed ] else []);
    spans = !traced;
  }
