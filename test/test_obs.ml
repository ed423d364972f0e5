(* The observability layer (DESIGN.md §16).

   Load-bearing properties:
   - the JSON printer/parser round-trips every document this repo writes;
   - the metrics registry has the documented merge semantics (counters
     add, gauges max, histograms add bucket counts) and its snapshots are
     deterministic: identical across simulator engines and worker counts;
   - the Chrome trace export is schema-valid (Perfetto-loadable) and its
     squash instants agree exactly with the backend's squash counter;
   - tracing disabled (the null sink) cannot perturb a run: outcomes,
     memory and every statistic are identical with and without a live
     trace buffer;
   - the utilisation view over Prof (prevv run --profile) honours the configured
     engine, and Scan/Event produce identical views;
   - the VCD writer declares and strobes the squash/epoch markers. *)

open Pv_core
module Sim = Pv_dataflow.Sim
module Json = Pv_obs.Json
module Metrics = Pv_obs.Metrics
module Trace = Pv_obs.Trace

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [
        ("s", Json.Str "a \"quoted\" \\ line\nwith\tcontrol\x01chars");
        ("i", Json.Int (-42));
        ("f", Json.Float 1.5);
        ("b", Json.Bool true);
        ("n", Json.Null);
        ("l", Json.List [ Json.Int 0; Json.Str ""; Json.Obj [] ]);
      ]
  in
  match Json.parse (Json.to_string doc) with
  | Ok doc' ->
      Alcotest.(check string)
        "print/parse/print fixpoint" (Json.to_string doc) (Json.to_string doc')
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_json_parse_errors () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "accepted invalid JSON %S" s
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":1,}"; "nul"; "\"unterminated"; "1 2"; "{\"a\" 1}" ]

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                    *)
(* ------------------------------------------------------------------ *)

let test_metrics_semantics () =
  let m = Metrics.create () in
  Metrics.incr m "c";
  Metrics.add m "c" 4;
  Metrics.set_gauge m "g" 7;
  Metrics.set_gauge_max m "g" 3;
  (* keeps 7 *)
  Metrics.set_gauge_max m "g" 9;
  Metrics.observe m "h" 0;
  Metrics.observe m "h" 5;
  Alcotest.(check int) "counter" 5 (Metrics.counter_value m "c");
  Alcotest.(check int) "gauge high-water" 9 (Metrics.gauge_value m "g");
  Alcotest.(check int) "absent counter" 0 (Metrics.counter_value m "nope");
  (* snapshot is name-sorted and survives a merge round-trip *)
  let snap = Metrics.snapshot m in
  Alcotest.(check (list string))
    "sorted names" [ "c"; "g"; "h" ]
    (List.map fst snap);
  let m2 = Metrics.create () in
  Metrics.add m2 "c" 10;
  Metrics.set_gauge m2 "g" 2;
  Metrics.observe m2 "h" 100_000;
  Metrics.absorb m2 snap;
  Alcotest.(check int) "counters add" 15 (Metrics.counter_value m2 "c");
  Alcotest.(check int) "gauges max" 9 (Metrics.gauge_value m2 "g");
  (match List.assoc "h" (Metrics.snapshot m2) with
  | Metrics.S_hist h ->
      Alcotest.(check int) "hist counts add" 3 h.Metrics.count;
      Alcotest.(check int) "hist sum adds" 100_005 h.Metrics.sum;
      Alcotest.(check int) "hist min" 0 h.Metrics.min_v;
      Alcotest.(check int) "hist max" 100_000 h.Metrics.max_v
  | _ -> Alcotest.fail "h should be a histogram");
  (* merge_snapshots agrees with absorb *)
  let merged = Metrics.merge_snapshots snap snap in
  match List.assoc "c" merged with
  | Metrics.S_counter n -> Alcotest.(check int) "merged counter" 10 n
  | _ -> Alcotest.fail "c should be a counter"

let test_metrics_kind_conflict () =
  let m = Metrics.create () in
  Metrics.incr m "x";
  Alcotest.check_raises "gauge over counter"
    (Invalid_argument "Metrics: \"x\" is a counter, not a gauge") (fun () ->
      Metrics.set_gauge m "x" 1)

(* ------------------------------------------------------------------ *)
(* Null sink and non-perturbation                                      *)
(* ------------------------------------------------------------------ *)

let test_null_sink_noop () =
  let t = Trace.null in
  Alcotest.(check bool) "disabled" false (Trace.enabled t);
  Trace.instant t ~tid:Trace.tid_sim ~ts:1 "x";
  Trace.complete t ~tid:Trace.tid_sim ~ts:1 ~dur:2 "y";
  Trace.counter t ~tid:Trace.tid_queue ~ts:1 "z" 3;
  Alcotest.(check int) "no events recorded" 0 (Trace.event_count t);
  Alcotest.(check int) "nothing dropped" 0 (Trace.dropped t)

let test_trace_limit () =
  let t = Trace.create ~limit:3 () in
  for i = 1 to 5 do
    Trace.instant t ~tid:Trace.tid_sim ~ts:i "e"
  done;
  Alcotest.(check int) "capped" 3 (Trace.event_count t);
  Alcotest.(check int) "overflow counted" 2 (Trace.dropped t)

(* a truncated export says so in its footer; an untruncated one carries
   the zero so downstream tooling can assert on it unconditionally *)
let test_trace_truncation_footer () =
  let other t =
    match Json.member "otherData" (Trace.to_json ~process:"p" t) with
    | Some o -> o
    | None -> Alcotest.fail "otherData missing"
  in
  let t = Trace.create ~limit:3 () in
  for i = 1 to 5 do
    Trace.instant t ~tid:Trace.tid_sim ~ts:i "e"
  done;
  let o = other t in
  Alcotest.(check (option int))
    "dropped_events" (Some 2)
    (Option.bind (Json.member "dropped_events" o) Json.to_int_opt);
  Alcotest.(check bool)
    "truncated flag" true
    (Json.member "truncated" o = Some (Json.Bool true));
  (match Option.bind (Json.member "warning" o) Json.to_string_opt with
  | Some w -> Alcotest.(check bool) "warning is non-empty" true (w <> "")
  | None -> Alcotest.fail "truncated trace has no warning");
  let clean = Trace.create ~limit:10 () in
  Trace.instant clean ~tid:Trace.tid_sim ~ts:1 "e";
  let o = other clean in
  Alcotest.(check (option int))
    "clean export still carries the zero" (Some 0)
    (Option.bind (Json.member "dropped_events" o) Json.to_int_opt);
  Alcotest.(check bool)
    "no warning when nothing dropped" true
    (Json.member "warning" o = None)

(* a run that overflows its trace buffer surfaces the loss as a metric *)
let test_trace_dropped_metric () =
  let kernel = Pv_kernels.Defs.polyn_mult () in
  let compiled = Pipeline.compile kernel in
  let m = Metrics.create () in
  let tr = Trace.create ~limit:5 () in
  ignore (Pipeline.simulate ~obs_trace:tr ~metrics:m compiled (Pipeline.prevv 16));
  let snap = Metrics.snapshot m in
  let dropped =
    match List.assoc_opt "trace.dropped_events" snap with
    | Some (Metrics.S_counter n) -> n
    | _ -> Alcotest.fail "trace.dropped_events not recorded"
  in
  Alcotest.(check bool) "drops counted" true (dropped > 0);
  Alcotest.(check int) "metric mirrors the trace" (Trace.dropped tr) dropped

(* ------------------------------------------------------------------ *)
(* Structured logger                                                   *)
(* ------------------------------------------------------------------ *)

module Log = Pv_obs.Log

let collect_log ?level ?now_ms () =
  let buf = Buffer.create 256 in
  (Log.create ?level ?now_ms (Buffer.add_string buf), buf)

let log_lines buf =
  String.split_on_char '\n' (Buffer.contents buf)
  |> List.filter (fun l -> l <> "")

let test_log_ldjson () =
  let log, buf = collect_log () in
  Log.info log "started" ~fields:[ ("jobs", Json.Int 4) ];
  Log.warn log "shed" ~fields:[ ("id", Json.Str "r\"1\"") ];
  let lines = log_lines buf in
  Alcotest.(check int) "one line per event" 2 (List.length lines);
  List.iter
    (fun line ->
      match Json.parse line with
      | Error e -> Alcotest.failf "log line is not JSON (%s): %s" e line
      | Ok j ->
          Alcotest.(check bool)
            "has ts_ms" true
            (Json.member "ts_ms" j <> None);
          Alcotest.(check bool)
            "has level" true
            (Json.member "level" j <> None);
          Alcotest.(check bool) "has msg" true (Json.member "msg" j <> None))
    lines;
  (* default timestamps are the event counter: ordered and deterministic *)
  let ts line =
    match Json.parse line with
    | Ok j -> (
        match Json.member "ts_ms" j with
        | Some (Json.Float f) -> f
        | Some (Json.Int i) -> float_of_int i
        | _ -> Alcotest.fail "ts_ms missing")
    | Error e -> Alcotest.failf "bad line: %s" e
  in
  Alcotest.(check bool)
    "counter timestamps increase" true
    (ts (List.nth lines 0) < ts (List.nth lines 1))

let test_log_levels () =
  let log, buf = collect_log ~level:Log.Warn () in
  Alcotest.(check bool) "debug disabled" false (Log.enabled log Log.Debug);
  Alcotest.(check bool) "error enabled" true (Log.enabled log Log.Error);
  Log.debug log "dropped" ~fields:[];
  Log.info log "dropped too" ~fields:[];
  Log.warn log "kept" ~fields:[];
  Log.error log "kept too" ~fields:[];
  Alcotest.(check int) "below-threshold suppressed" 2
    (List.length (log_lines buf));
  (* the null logger is inert *)
  Log.error Log.null "nothing" ~fields:[];
  Alcotest.(check bool) "null disabled" false (Log.enabled Log.null Log.Error)

let test_log_rid () =
  let log, buf = collect_log () in
  let scoped = Log.with_rid log "req-7" in
  Log.info scoped "handled" ~fields:[];
  Log.info log "unscoped" ~fields:[];
  match log_lines buf with
  | [ scoped_line; plain_line ] ->
      (match Json.parse scoped_line with
      | Ok j ->
          Alcotest.(check (option string))
            "rid stamped" (Some "req-7")
            (Option.bind (Json.member "rid" j) Json.to_string_opt)
      | Error e -> Alcotest.failf "bad line: %s" e);
      (match Json.parse plain_line with
      | Ok j -> Alcotest.(check bool) "no rid" true (Json.member "rid" j = None)
      | Error e -> Alcotest.failf "bad line: %s" e)
  | lines -> Alcotest.failf "expected 2 lines, got %d" (List.length lines)

let result_sig (r : Pipeline.result) =
  let outcome =
    match r.Pipeline.outcome with
    | Sim.Finished { cycles } -> ("finished", cycles)
    | Sim.Deadlock { at_cycle; _ } -> ("deadlock", at_cycle)
    | Sim.Timeout { at_cycle; _ } -> ("timeout", at_cycle)
  in
  (outcome, r.Pipeline.cycles, r.Pipeline.mem, r.Pipeline.mem_stats,
   r.Pipeline.run_stats)

(* a live trace buffer must not change anything observable about a run —
   the zero-cost-when-disabled guarantee read the other way round *)
let test_tracing_does_not_perturb () =
  List.iter
    (fun (kernel, dis) ->
      let compiled = Pipeline.compile kernel in
      let plain = Pipeline.simulate compiled dis in
      let traced =
        Pipeline.simulate ~obs_trace:(Trace.create ()) compiled dis
      in
      Alcotest.(check bool)
        (kernel.Pv_kernels.Ast.name ^ "/" ^ Pipeline.name_of dis
        ^ ": identical result")
        true
        (result_sig plain = result_sig traced))
    [
      (Pv_kernels.Defs.polyn_mult (), Pipeline.prevv 16);
      (Pv_kernels.Defs.matvec (), Pipeline.prevv 16);
      (Pv_kernels.Defs.histogram (), Pipeline.fast_lsq);
    ]

(* ------------------------------------------------------------------ *)
(* Chrome trace schema                                                 *)
(* ------------------------------------------------------------------ *)

let trace_of kernel dis =
  let compiled = Pipeline.compile kernel in
  let tr = Trace.create () in
  let r = Pipeline.simulate ~obs_trace:tr compiled dis in
  (tr, r)

let get_events doc =
  match Option.bind (Json.member "traceEvents" doc) Json.to_list_opt with
  | Some evs -> evs
  | None -> Alcotest.fail "traceEvents missing or not a list"

let field name ev = Json.member name ev

let str_field name ev =
  match Option.bind (field name ev) Json.to_string_opt with
  | Some s -> s
  | None -> Alcotest.failf "event field %S missing or not a string" name

let int_field name ev =
  match Option.bind (field name ev) Json.to_int_opt with
  | Some n -> n
  | None -> Alcotest.failf "event field %S missing or not an int" name

let test_trace_schema () =
  let tr, _ = trace_of (Pv_kernels.Defs.polyn_mult ()) (Pipeline.prevv 16) in
  let rendered = Json.to_string (Trace.to_json ~process:"polyn_mult" tr) in
  let doc =
    match Json.parse rendered with
    | Ok d -> d
    | Error e -> Alcotest.failf "trace is not valid JSON: %s" e
  in
  let evs = get_events doc in
  Alcotest.(check bool) "has events" true (List.length evs > 100);
  (* every event is schema-valid *)
  List.iter
    (fun ev ->
      let ph = str_field "ph" ev in
      ignore (str_field "name" ev);
      Alcotest.(check int) "pid" 1 (int_field "pid" ev);
      ignore (int_field "tid" ev);
      match ph with
      | "M" -> ()
      | "X" ->
          Alcotest.(check bool) "ts >= 0" true (int_field "ts" ev >= 0);
          Alcotest.(check bool) "dur >= 0" true (int_field "dur" ev >= 0)
      | "i" ->
          Alcotest.(check string) "instant scope" "t" (str_field "s" ev)
      | "C" ->
          let v =
            Option.bind (field "args" ev) (fun a ->
                Option.bind (Json.member "value" a) Json.to_int_opt)
          in
          Alcotest.(check bool) "counter has value" true (v <> None)
      | ph -> Alcotest.failf "unknown phase %S" ph)
    evs;
  let named ph name =
    List.filter
      (fun ev -> str_field "ph" ev = ph && str_field "name" ev = name)
      evs
  in
  (* process metadata *)
  (match named "M" "process_name" with
  | [ ev ] ->
      let pname =
        Option.bind (field "args" ev) (fun a ->
            Option.bind (Json.member "name" a) Json.to_string_opt)
      in
      Alcotest.(check (option string)) "process name" (Some "polyn_mult") pname
  | _ -> Alcotest.fail "expected exactly one process_name metadata event");
  Alcotest.(check bool)
    "thread metadata present" true
    (List.length (named "M" "thread_name") >= 2);
  (* the PreVV-specific content: every store validation is an arbiter
     instant, and the premature queue has a counter track *)
  let validations = named "i" "validation" in
  Alcotest.(check int)
    "one validation instant per store" 2304
    (List.length validations);
  List.iter
    (fun ev ->
      Alcotest.(check int) "validation on arbiter track" 3 (int_field "tid" ev))
    validations;
  Alcotest.(check bool)
    "pq occupancy counter track" true
    (List.length (named "C" "pq_occupancy") > 0);
  Alcotest.(check bool)
    "in-flight counter track" true
    (List.length (named "C" "in_flight_tokens") > 0);
  (* counter tracks are emitted in cycle order: within each track the
     timestamps never go backwards *)
  let tracks = Hashtbl.create 8 in
  List.iter
    (fun ev ->
      if str_field "ph" ev = "C" then begin
        let name = str_field "name" ev in
        let ts = int_field "ts" ev in
        let last =
          match Hashtbl.find_opt tracks name with Some t -> t | None -> -1
        in
        Alcotest.(check bool)
          (name ^ ": counter ts monotone") true (ts >= last);
        Hashtbl.replace tracks name ts
      end)
    evs

let test_trace_fault_instants () =
  let kernel = Pv_kernels.Defs.histogram () in
  let compiled = Pipeline.compile kernel in
  let faults = Pipeline.seeded_faults compiled ~seed:7 in
  let sim_cfg = { Sim.default_config with Sim.faults } in
  let tr = Trace.create () in
  let r =
    Pipeline.simulate ~sim_cfg ~obs_trace:tr compiled (Pipeline.prevv 16)
  in
  (* the run must still complete (the plan is recoverable) and each fired
     fault event appears as an instant on the fault track *)
  (match r.Pipeline.outcome with
  | Sim.Finished _ -> ()
  | _ -> Alcotest.fail "recoverable plan should still finish");
  Alcotest.(check bool) "plan is non-empty" true (faults <> []);
  let fault_instants =
    List.filter
      (fun (e : Trace.event) -> e.Trace.tid = Trace.tid_fault)
      (Trace.events tr)
  in
  Alcotest.(check bool)
    "fault instants on the fault track" true
    (List.length fault_instants > 0)

let test_trace_squash_instants () =
  let tr, r = trace_of (Pv_kernels.Defs.matvec ()) (Pipeline.prevv 16) in
  let squashes = r.Pipeline.mem_stats.Pv_dataflow.Memif.squashes in
  Alcotest.(check bool) "matvec squashes under prevv16" true (squashes > 0);
  let evs = Trace.events tr in
  let count ph name =
    List.length
      (List.filter
         (fun (e : Trace.event) -> e.Trace.ph = ph && e.Trace.name = name)
         evs)
  in
  Alcotest.(check int)
    "one sim squash instant per squash" squashes (count 'i' "squash");
  Alcotest.(check int)
    "one backend squash instant per squash" squashes
    (count 'i' "backend_squash");
  (* every squash closes an epoch span ("epoch N"); the final epoch
     closes when the run ends *)
  let epoch_spans =
    List.length
      (List.filter
         (fun (e : Trace.event) ->
           e.Trace.ph = 'X'
           && String.length e.Trace.name >= 5
           && String.sub e.Trace.name 0 5 = "epoch")
         evs)
  in
  Alcotest.(check int) "epoch spans" (squashes + 1) epoch_spans

(* ------------------------------------------------------------------ *)
(* Metric determinism                                                  *)
(* ------------------------------------------------------------------ *)

let snapshot_str s = Json.to_string (Metrics.snapshot_to_json s)

let metrics_of engine kernel dis =
  let compiled = Pipeline.compile kernel in
  let sim_cfg = { Sim.default_config with Sim.engine } in
  let m = Metrics.create () in
  ignore (Pipeline.simulate ~sim_cfg ~metrics:m compiled dis);
  Metrics.snapshot m

let test_metrics_engine_invariant () =
  List.iter
    (fun (kernel, dis) ->
      let scan = metrics_of Sim.Scan kernel dis in
      let event = metrics_of Sim.Event kernel dis in
      Alcotest.(check string)
        (kernel.Pv_kernels.Ast.name ^ "/" ^ Pipeline.name_of dis
        ^ ": scan = event")
        (snapshot_str scan) (snapshot_str event))
    [
      (Pv_kernels.Defs.matvec (), Pipeline.prevv 16);
      (Pv_kernels.Defs.gaussian (), Pipeline.prevv 64);
      (Pv_kernels.Defs.histogram (), Pipeline.fast_lsq);
      (Pv_kernels.Defs.polyn_mult (), Pipeline.plain_lsq);
    ]

(* drop the runner.* telemetry (worker loads, cache hits): that part is
   runtime-dependent by design; everything else must be jobs-invariant *)
let deterministic_part snap =
  List.filter
    (fun (name, _) ->
      not
        (String.length name >= 7 && String.sub name 0 7 = "runner."))
    snap

let test_sweep_metrics_jobs_invariant () =
  let cells =
    [
      (Pv_kernels.Defs.histogram (), Pipeline.prevv 16);
      (Pv_kernels.Defs.histogram (), Pipeline.fast_lsq);
      (Pv_kernels.Defs.gaussian (), Pipeline.prevv 16);
      (Pv_kernels.Defs.gaussian (), Pipeline.fast_lsq);
    ]
  in
  let sweep jobs =
    let m = Metrics.create () in
    let rs = Experiment.sweep ~metrics:m ~jobs cells in
    (rs, Metrics.snapshot m)
  in
  let serial, m1 = sweep 1 in
  let parallel, m4 = sweep 4 in
  (* per-point: byte-identical JSON and identical embedded snapshots *)
  List.iter2
    (fun a b ->
      match (a, b) with
      | Ok (pa : Experiment.point), Ok pb ->
          Alcotest.(check string)
            "point JSON identical"
            (Experiment.point_to_json pa)
            (Experiment.point_to_json pb);
          Alcotest.(check string)
            "point metrics identical"
            (snapshot_str pa.Experiment.metrics)
            (snapshot_str pb.Experiment.metrics)
      | _ -> Alcotest.fail "sweep point failed")
    serial parallel;
  (* aggregate: equal once the runner telemetry is stripped *)
  Alcotest.(check string)
    "aggregated metrics jobs-invariant"
    (snapshot_str (deterministic_part m1))
    (snapshot_str (deterministic_part m4));
  (* the telemetry itself is present and accounts for every cell *)
  let m = Metrics.create () in
  Metrics.absorb m m1;
  Alcotest.(check int) "runner.points" (List.length cells)
    (Metrics.counter_value m "runner.points");
  Alcotest.(check int) "runner.errors" 0 (Metrics.counter_value m "runner.errors")

let test_cached_point_keeps_metrics () =
  let cache = Parallel.Cache.in_memory () in
  let kernel = Pv_kernels.Defs.histogram () in
  let cold, w1 = Experiment.run_cached ~cache kernel (Pipeline.prevv 16) in
  let hot, w2 = Experiment.run_cached ~cache kernel (Pipeline.prevv 16) in
  Alcotest.(check bool) "first is a miss" true (w1 = `Miss);
  Alcotest.(check bool) "second is a hit" true (w2 = `Hit);
  Alcotest.(check bool)
    "snapshot is non-empty" true
    (cold.Experiment.metrics <> []);
  Alcotest.(check string)
    "snapshot rides the cache"
    (snapshot_str cold.Experiment.metrics)
    (snapshot_str hot.Experiment.metrics)

(* ------------------------------------------------------------------ *)
(* Profile engine equality                                             *)
(* ------------------------------------------------------------------ *)

let test_profile_engine_invariant () =
  let compiled = Pipeline.compile (Pv_kernels.Defs.gaussian ()) in
  let profile engine =
    let prof = Pv_obs.Prof.create () in
    let sim_cfg = { Sim.default_config with Sim.engine } in
    let r = Pipeline.simulate ~sim_cfg ~prof compiled (Pipeline.prevv 16) in
    let u =
      Pv_obs.Prof.usage prof ~cycles:r.Pipeline.run_stats.Sim.cycles
        ~fires:r.Pipeline.run_stats.Sim.node_fires
    in
    Json.to_string
      (Pv_obs.Prof.usage_to_json u
         ~outcome:(Sim.outcome_name r.Pipeline.outcome))
  in
  Alcotest.(check string)
    "profiles identical across engines" (profile Sim.Scan) (profile Sim.Event)

(* ------------------------------------------------------------------ *)
(* VCD squash/epoch markers                                            *)
(* ------------------------------------------------------------------ *)

let test_vcd_squash_marker () =
  let kernel = Pv_kernels.Defs.matvec () in
  let compiled = Pipeline.compile kernel in
  let init = Pv_kernels.Workload.default_init kernel in
  let mem =
    Pv_memory.Layout.initial_memory compiled.Pipeline.layout kernel ~init
  in
  let backend = Pipeline.backend_of compiled mem (Pipeline.prevv 16) in
  let path = Filename.temp_file "prevv_obs" ".vcd" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      ignore
        (Pv_dataflow.Vcd.record
           ~cfg:{ Sim.default_config with Sim.max_cycles = 5_000 }
           ~path compiled.Pipeline.graph backend);
      let ic = open_in path in
      let body =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      (* the header declares the two marker signals... *)
      let squash_id = ref None in
      String.split_on_char '\n' body
      |> List.iter (fun line ->
             match String.split_on_char ' ' line with
             | [ "$var"; "wire"; "1"; id; "squash"; "$end" ] ->
                 squash_id := Some id
             | _ -> ());
      Alcotest.(check bool)
        "epoch vector declared" true
        (List.exists
           (fun line ->
             match String.split_on_char ' ' line with
             | [ "$var"; "wire"; "32"; _; "epoch"; "$end" ] -> true
             | _ -> false)
           (String.split_on_char '\n' body));
      match !squash_id with
      | None -> Alcotest.fail "squash strobe not declared"
      | Some id ->
          (* ...and matvec's squashes strobe it high at least once *)
          let strobe = "\n1" ^ id ^ "\n" in
          let found =
            let n = String.length body and k = String.length strobe in
            let rec scan i =
              if i + k > n then false
              else String.sub body i k = strobe || scan (i + 1)
            in
            scan 0
          in
          Alcotest.(check bool) "squash strobed high" true found)

(* ------------------------------------------------------------------ *)
(* `prevv run` artifacts, written and parsed back                       *)
(* ------------------------------------------------------------------ *)

(* The files `prevv run` writes, built through the calls it makes
   ([--trace] with [--metrics]; [--profile --json] and [--folded] under
   [-b prevv]) and read back through [Json.parse] and [Prof.parse_folded]:
   the rules a consumer of these artifacts may rely on. *)

let parse_doc what s =
  match Json.parse s with
  | Ok d -> d
  | Error e -> Alcotest.failf "%s is not valid JSON: %s" what e

let int_at path doc =
  List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some doc) path
  |> Fun.flip Option.bind Json.to_int_opt

let test_run_trace_artifacts () =
  let m = Metrics.create () in
  List.iter
    (fun (kernel, metrics, want) ->
      let name = kernel.Pv_kernels.Ast.name in
      let tr = Trace.create () in
      ignore
        (Pipeline.simulate ~obs_trace:tr ?metrics (Pipeline.compile kernel)
           (Pipeline.prevv 16));
      let path = Filename.temp_file "prevv_obs" ".json" in
      Trace.write ~process:name tr path;
      let doc =
        parse_doc path (In_channel.with_open_text path In_channel.input_all)
      in
      Sys.remove path;
      let evs = get_events doc in
      let has ph ev_name =
        List.exists
          (fun ev -> str_field "ph" ev = ph && str_field "name" ev = ev_name)
          evs
      in
      Alcotest.(check bool) (name ^ ": process_name") true (has "M" "process_name");
      Alcotest.(check bool) (name ^ ": " ^ want ^ " instant") true (has "i" want);
      Alcotest.(check bool)
        (name ^ ": pq_occupancy counter") true (has "C" "pq_occupancy");
      Alcotest.(check (option int))
        (name ^ ": no dropped events") (Some 0)
        (int_at [ "otherData"; "dropped_events" ] doc))
    [
      (Pv_kernels.Defs.polyn_mult (), Some m, "validation");
      (Pv_kernels.Defs.matvec (), None, "squash");
    ];
  (* the snapshot of the traced polyn_mult run *)
  let snap = parse_doc "metrics" (Json.to_string (Metrics.to_json m)) in
  List.iter
    (fun key ->
      Alcotest.(check bool)
        (key ^ " > 0") true
        (Option.fold ~none:false ~some:(fun v -> v > 0)
           (int_at [ key; "value" ] snap)))
    [ "sim.cycles"; "scheme.prevv.arbiter.checks" ]

let test_run_profile_artifacts () =
  List.iter
    (fun kernel ->
      let name = kernel.Pv_kernels.Ast.name in
      let prof = Pv_obs.Prof.create () in
      let r =
        Pipeline.simulate ~prof (Pipeline.compile kernel) (Pipeline.prevv 16)
      in
      (* --folded: "frames... count" lines with a positive count *)
      let folded = Pv_obs.Prof.folded prof ~kernel:name in
      Alcotest.(check bool) (name ^ ": folded non-empty") true (folded <> "");
      (match Pv_obs.Prof.parse_folded folded with
      | Error e -> Alcotest.failf "%s: %s" name e
      | Ok rows ->
          List.iter
            (fun (frames, count) ->
              Alcotest.(check bool)
                (name ^ ": folded stack and count") true
                (frames <> [] && count > 0))
            rows);
      (* --profile --json: the hot-spot report's half *)
      let d =
        parse_doc name
          (Json.to_string (Pv_obs.Prof.to_json ~top:10 prof ~kernel:name))
      in
      Alcotest.(check (option string))
        "kernel" (Some name)
        (Option.bind (Json.member "kernel" d) Json.to_string_opt);
      let phase p = Option.get (int_at [ "phases"; p ] d) in
      let total = Option.get (int_at [ "total" ] d) in
      let phases =
        match Json.member "phases" d with
        | Some (Json.Obj l) -> List.map (fun (p, _) -> phase p) l
        | _ -> Alcotest.failf "%s: phases missing" name
      in
      Alcotest.(check int) (name ^ ": phases sum to total") total
        (List.fold_left ( + ) 0 phases);
      Alcotest.(check bool) (name ^ ": total > 0") true (total > 0);
      Alcotest.(check bool)
        (name ^ ": PreVV phases attributed") true
        (phase "arbiter_scan" > 0 && phase "pq_validate" > 0);
      Alcotest.(check int) (name ^ ": no LSQ CAM") 0 (phase "lsq_cam");
      let share p =
        match Option.bind (Json.member "phase_share" d) (Json.member p) with
        | Some (Json.Float f) -> f
        | _ -> Alcotest.failf "%s: phase_share.%s missing" name p
      in
      (* incremental validation and the CAM kind views took gaussian's
         combined arbiter share from 0.69 to about 0.26 *)
      if name = "gaussian" then
        Alcotest.(check bool)
          "gaussian: arbiter_scan + pq_validate share < 0.40" true
          (share "arbiter_scan" +. share "pq_validate" < 0.40);
      (* --profile --json: the utilisation view's half *)
      let u =
        Pv_obs.Prof.usage prof ~cycles:r.Pipeline.run_stats.Sim.cycles
          ~fires:r.Pipeline.run_stats.Sim.node_fires
      in
      let p =
        parse_doc name
          (Json.to_string
             (Pv_obs.Prof.usage_to_json u
                ~outcome:(Sim.outcome_name r.Pipeline.outcome)))
      in
      let cycles = Option.get (int_at [ "cycles" ] p) in
      Alcotest.(check bool) (name ^ ": cycles > 0") true (cycles > 0);
      match Option.bind (Json.member "chans" p) Json.to_list_opt with
      | None | Some [] -> Alcotest.failf "%s: no channels" name
      | Some chans ->
          List.iter
            (fun c ->
              let held = Option.get (int_at [ "held" ] c) in
              Alcotest.(check bool)
                (name ^ ": 0 <= held <= cycles") true
                (0 <= held && held <= cycles))
            chans)
    [ Pv_kernels.Defs.gaussian (); Pv_kernels.Defs.histogram () ]

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "semantics" `Quick test_metrics_semantics;
          Alcotest.test_case "kind conflict" `Quick test_metrics_kind_conflict;
        ] );
      ( "trace",
        [
          Alcotest.test_case "null sink is a no-op" `Quick test_null_sink_noop;
          Alcotest.test_case "event limit" `Quick test_trace_limit;
          Alcotest.test_case "truncation footer" `Quick
            test_trace_truncation_footer;
          Alcotest.test_case "dropped-events metric" `Quick
            test_trace_dropped_metric;
          Alcotest.test_case "tracing does not perturb" `Quick
            test_tracing_does_not_perturb;
          Alcotest.test_case "chrome schema" `Quick test_trace_schema;
          Alcotest.test_case "squash instants" `Quick
            test_trace_squash_instants;
          Alcotest.test_case "fault instants" `Quick test_trace_fault_instants;
        ] );
      ( "run artifacts",
        [
          Alcotest.test_case "trace and metrics" `Quick
            test_run_trace_artifacts;
          Alcotest.test_case "profile and folded stacks" `Quick
            test_run_profile_artifacts;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "metrics engine-invariant" `Quick
            test_metrics_engine_invariant;
          Alcotest.test_case "sweep metrics jobs-invariant" `Quick
            test_sweep_metrics_jobs_invariant;
          Alcotest.test_case "cached point keeps metrics" `Quick
            test_cached_point_keeps_metrics;
        ] );
      ( "profile",
        [
          Alcotest.test_case "engine-invariant" `Quick
            test_profile_engine_invariant;
        ] );
      ( "log",
        [
          Alcotest.test_case "lines are LDJSON" `Quick test_log_ldjson;
          Alcotest.test_case "level threshold" `Quick test_log_levels;
          Alcotest.test_case "request-scoped ids" `Quick test_log_rid;
        ] );
      ( "vcd",
        [
          Alcotest.test_case "squash marker" `Quick test_vcd_squash_marker;
        ] );
    ]
