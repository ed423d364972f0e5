(** LDJSON experiment service — see the .mli and DESIGN.md §18. *)

module Json = Pv_obs.Json
module Sim = Pv_dataflow.Sim

type request = {
  id : string;
  kernel : string;
  backend : string;
  engine : Sim.engine;
  max_cycles : int option;
  fault_seed : int option;
}

let request ~id ~kernel ~backend ?(engine = Sim.Event) ?max_cycles ?fault_seed
    () =
  { id; kernel; backend; engine; max_cycles; fault_seed }

let ( let* ) = Result.bind

let parse_request line =
  match Json.parse line with
  | Error e -> Error ("invalid JSON: " ^ e)
  | Ok j ->
      let str_field name =
        match Json.member name j with
        | Some (Json.Str s) -> Ok s
        | Some _ -> Error (Printf.sprintf "field %S must be a string" name)
        | None -> Error (Printf.sprintf "missing field %S" name)
      in
      let int_field name =
        match Json.member name j with
        | Some (Json.Int i) -> Ok (Some i)
        | None | Some Json.Null -> Ok None
        | Some _ -> Error (Printf.sprintf "field %S must be an integer" name)
      in
      let* id = str_field "id" in
      let* kernel = str_field "kernel" in
      let* backend = str_field "backend" in
      let* engine =
        match Json.member "engine" j with
        | None | Some Json.Null -> Ok Sim.Event
        | Some (Json.Str s) -> (
            match Sim.engine_of_string s with
            | Some e -> Ok e
            | None -> Error (Printf.sprintf "unknown engine %S" s))
        | Some _ -> Error "field \"engine\" must be a string"
      in
      let* max_cycles = int_field "max_cycles" in
      let* fault_seed = int_field "fault_seed" in
      Ok { id; kernel; backend; engine; max_cycles; fault_seed }

let request_to_json r =
  Json.to_string
    (Json.Obj
       ([
          ("id", Json.Str r.id);
          ("kernel", Json.Str r.kernel);
          ("backend", Json.Str r.backend);
          ("engine", Json.Str (Sim.string_of_engine r.engine));
        ]
       @ (match r.max_cycles with
         | Some n -> [ ("max_cycles", Json.Int n) ]
         | None -> [])
       @
       match r.fault_seed with
       | Some n -> [ ("fault_seed", Json.Int n) ]
       | None -> []))

(* the id is deliberately excluded: two requests differing only in id are
   the same computation and share one in-flight slot / cache entry *)
let request_key r =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          ( "prevv-serve/v1",
            r.kernel,
            r.backend,
            Sim.string_of_engine r.engine,
            r.max_cycles,
            r.fault_seed )
          []))

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)
(* ------------------------------------------------------------------ *)

type config = {
  jobs : int;
  queue_capacity : int;
  policy : Supervisor.policy;
  cache : Parallel.Cache.t option;
  kill_at : int list;
  stats_interval : float option;
      (** emit a {"type":"stats",...} frame at least this many seconds
          apart (checked between requests); [None] = never *)
  log : Pv_obs.Log.t;  (** structured operational log (sheds, kills, drain) *)
}

let default_config =
  {
    jobs = 1;
    queue_capacity = 256;
    policy = Supervisor.default_policy;
    cache = None;
    kill_at = [];
    stats_interval = None;
    log = Pv_obs.Log.null;
  }

(* ------------------------------------------------------------------ *)
(* Responses (deterministic: no timing, no attempt counts)             *)
(* ------------------------------------------------------------------ *)

let json_str s = Json.to_string (Json.Str s)

let ok_line id body =
  Printf.sprintf "{ \"id\": %s, \"status\": \"ok\", \"result\": %s }"
    (json_str id) body

let error_line id msg =
  Printf.sprintf "{ \"id\": %s, \"status\": \"error\", \"error\": %s }"
    (json_str id) (json_str msg)

let overloaded_line id ~retry_after_ms =
  Printf.sprintf
    "{ \"id\": %s, \"status\": \"overloaded\", \"retry_after_ms\": %d }"
    (json_str id) retry_after_ms

let bad_line msg =
  Printf.sprintf "{ \"id\": null, \"status\": \"bad_request\", \"error\": %s }"
    (json_str msg)

(* ------------------------------------------------------------------ *)
(* Compute                                                             *)
(* ------------------------------------------------------------------ *)

(* one compute attempt; raises on failure *)
let compute cfg ~token req =
  let kernel = Pv_kernels.Defs.by_name req.kernel in
  let dis =
    match Scheme.of_string req.backend with
    | Ok d -> d
    | Error e -> invalid_arg e
  in
  let base = Sim.default_config in
  let compiled, faults =
    match req.fault_seed with
    | None -> (None, [])
    | Some seed ->
        (* the seeded plan is sized to the kernel's instance count, which
           needs the compiled circuit; a miss runs on that same compile *)
        let compiled = Pipeline.compile kernel in
        let instances = Pv_frontend.Trace.length compiled.Pipeline.trace in
        ( Some compiled,
          Pv_dataflow.Fault.random_recoverable ~seed
            ~n_chans:(Pv_dataflow.Graph.n_chans compiled.Pipeline.graph)
            ~max_seq:instances
            ~horizon:(100 + (4 * instances))
            () )
  in
  let sim_cfg =
    {
      base with
      Sim.engine = req.engine;
      Sim.max_cycles =
        Option.value req.max_cycles ~default:base.Sim.max_cycles;
      Sim.faults;
      Sim.cancel = (fun () -> Supervisor.Token.cancelled token);
    }
  in
  let point =
    match cfg.cache with
    | Some c ->
        fst (Experiment.run_cached ~sim_cfg ?compiled ~cache:c kernel dis)
    | None -> Experiment.run ~sim_cfg ?compiled kernel dis
  in
  Experiment.point_to_json point

(* ------------------------------------------------------------------ *)
(* Supervised request loop                                             *)
(* ------------------------------------------------------------------ *)

type summary = {
  received : int;
  responded : int;
  ok : int;
  errors : int;
  bad_requests : int;
  shed : int;
  dedup_hits : int;
  retries : int;
  worker_kills : int;
  respawns : int;
  cache_hits : int;
  cache_misses : int;
  lost : int;
  wall_s : float;
  requests_per_s : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
}

let summary_to_json s =
  Json.Obj
    [
      ("received", Json.Int s.received);
      ("responded", Json.Int s.responded);
      ("ok", Json.Int s.ok);
      ("errors", Json.Int s.errors);
      ("bad_requests", Json.Int s.bad_requests);
      ("shed", Json.Int s.shed);
      ("dedup_hits", Json.Int s.dedup_hits);
      ("retries", Json.Int s.retries);
      ("worker_kills", Json.Int s.worker_kills);
      ("respawns", Json.Int s.respawns);
      ("cache_hits", Json.Int s.cache_hits);
      ("cache_misses", Json.Int s.cache_misses);
      ("lost", Json.Int s.lost);
      ("wall_s", Json.Float s.wall_s);
      ("requests_per_s", Json.Float s.requests_per_s);
      ("p50_ms", Json.Float s.p50_ms);
      ("p95_ms", Json.Float s.p95_ms);
      ("p99_ms", Json.Float s.p99_ms);
    ]

let drain_flag = Atomic.make false
let drain_now () = Atomic.set drain_flag true

type item = { t_seq : int; t_key : string; t_req : request }

type state = {
  cfg : config;
  jobs_target : int;
  pool : Parallel.pool option;  (** [None]: inline, the serial reference *)
  emit : string -> unit;
  emit_lock : Mutex.t;
      (** serialises [emit]; taken before [lock], never while holding it *)
  emit_failure : (exn * Printexc.raw_backtrace) option Atomic.t;
      (** the first exception [emit] raised: no later line is emitted and
          [run] re-raises it after the drain *)
  lock : Mutex.t;
  progress : Condition.t;  (** main: a response landed *)
  responses : (int, string) Hashtbl.t;  (** seq -> response line *)
  mutable next_emit : int;
  mutable next_seq : int;
  mutable pending : int;  (** accepted, not yet responded *)
  inflight : (string, (int * string) list ref) Hashtbl.t;
      (** key -> waiting (seq, id) *)
  t0s : (int, int64) Hashtbl.t;  (** seq -> submit instant *)
  lats : float Queue.t;  (** latencies (ms) of computed responses *)
  mutable kill_pending : int list;  (** [kill_at] seqs not yet picked up *)
  mutable n_received : int;
  mutable n_ok : int;
  mutable n_errors : int;
  mutable n_bad : int;
  mutable n_shed : int;
  mutable n_dedup : int;
  mutable n_retries : int;
  mutable n_kills : int;
  mutable ewma_ms : float;
      (** exponentially weighted recent service latency; 0.0 until the
          first computed response lands *)
  mutable max_pending : int;  (** queue-depth high water *)
}

(* store the computed outcome for every waiter of the item's key;
   lock held by caller *)
let store_locked st item outcome retries =
  let waiters =
    match Hashtbl.find_opt st.inflight item.t_key with
    | Some ws -> !ws
    | None -> [ (item.t_seq, item.t_req.id) ]
  in
  Hashtbl.remove st.inflight item.t_key;
  st.n_retries <- st.n_retries + retries;
  List.iter
    (fun (seq, id) ->
      (match outcome with
      | Ok body ->
          Hashtbl.replace st.responses seq (ok_line id body);
          st.n_ok <- st.n_ok + 1
      | Error (e : Supervisor.task_error) ->
          Hashtbl.replace st.responses seq (error_line id e.last_error);
          st.n_errors <- st.n_errors + 1);
      (match Hashtbl.find_opt st.t0s seq with
      | Some t0 ->
          let ms = Clock.elapsed_s t0 *. 1000.0 in
          Queue.push ms st.lats;
          st.ewma_ms <-
            (if st.ewma_ms > 0.0 then (0.8 *. st.ewma_ms) +. (0.2 *. ms)
             else ms);
          Hashtbl.remove st.t0s seq
      | None -> ());
      st.pending <- st.pending - 1)
    waiters;
  Condition.signal st.progress

(* pop the contiguous ready prefix; lock held by caller *)
let rec ready_locked st acc =
  match Hashtbl.find_opt st.responses st.next_emit with
  | Some line ->
      Hashtbl.remove st.responses st.next_emit;
      st.next_emit <- st.next_emit + 1;
      ready_locked st (line :: acc)
  | None -> List.rev acc

(* [emit_lock] held by caller *)
let emit_locked st line =
  if Option.is_none (Atomic.get st.emit_failure) then
    try st.emit line
    with e ->
      Atomic.set st.emit_failure (Some (e, Printexc.get_raw_backtrace ()))

(* emit the contiguous ready prefix from whichever domain calls it: every
   domain that stores a response flushes right after, so a response leaves
   as soon as it and every earlier one are done.  Popping under
   [emit_lock] keeps concurrent flushes in arrival order. *)
let flush st =
  Mutex.lock st.emit_lock;
  Mutex.lock st.lock;
  let lines = ready_locked st [] in
  Mutex.unlock st.lock;
  List.iter (emit_locked st) lines;
  Mutex.unlock st.emit_lock

(* The injected kill: true on the first pickup of a [kill_at] item, which
   is counted and logged here. *)
let killed st item =
  Mutex.lock st.lock;
  let kill = List.mem item.t_seq st.kill_pending in
  if kill then begin
    st.kill_pending <- List.filter (( <> ) item.t_seq) st.kill_pending;
    st.n_kills <- st.n_kills + 1
  end;
  Mutex.unlock st.lock;
  if kill then
    Pv_obs.Log.warn st.cfg.log "worker_killed"
      ~fields:
        [
          ("seq", Pv_obs.Json.Int item.t_seq);
          ("id", Pv_obs.Json.Str item.t_req.id);
        ];
  kill

(* compute [item], store the outcome for its waiters and flush *)
let process st item =
  let req = item.t_req in
  let outcome, tally =
    Supervisor.retry st.cfg.policy ~label:(req.kernel ^ "/" ^ req.backend)
      (fun ~token -> compute st.cfg ~token req)
  in
  Mutex.lock st.lock;
  store_locked st item outcome tally.Supervisor.retries;
  Mutex.unlock st.lock;
  flush st

(* one request as a pool job.  A kill resubmits the item (zero lost; the
   drain cannot have shut the pool down, since the item is still pending)
   and ends this worker, which the pool replaces. *)
let rec pooled st pool item () =
  if killed st item then begin
    Parallel.submit pool (pooled st pool item);
    raise Parallel.End_worker
  end
  else process st item

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let idx = int_of_float (Float.round (p *. float_of_int (n - 1))) in
    sorted.(max 0 (min (n - 1) idx))

(* backoff hint for a shed client: the backlog ahead of it, in units of
   the recent per-request service latency, spread over the worker pool.
   Before any response has completed the EWMA is 0 and the hint degrades
   to the 1 ms minimum.  Lock held by caller. *)
let retry_after_ms_locked st =
  let per_req = Float.max st.ewma_ms 0.0 in
  let jobs = float_of_int (max 1 st.jobs_target) in
  let hint = per_req *. float_of_int (st.pending + 1) /. jobs in
  max 1 (int_of_float (Float.ceil hint))

(* one {"type":"stats",...} frame from the live counters, emitted through
   [emit_lock] so it never lands inside the response stream.  The counters
   are read under the service lock; the latencies are copied there and
   sorted after it is released.  The gauge identity [received = responded
   + shed + errors + in_flight] holds exactly in every frame: each
   received request is, at any instant, in exactly one of those four
   states (bad requests count as responded — they got a response line). *)
let emit_stats_frame st =
  let queue_depth, respawns =
    match st.pool with
    | Some p -> (Parallel.queued p, Parallel.respawns p)
    | None -> (0, 0)
  in
  Mutex.lock st.lock;
  let lats = Array.of_seq (Queue.to_seq st.lats) in
  let counters =
    [
      ("type", Json.Str "stats");
      ("received", Json.Int st.n_received);
      ("responded", Json.Int (st.n_ok + st.n_bad));
      ("shed", Json.Int st.n_shed);
      ("errors", Json.Int st.n_errors);
      ("in_flight", Json.Int st.pending);
      ("queue_depth", Json.Int queue_depth);
      ("queue_depth_max", Json.Int st.max_pending);
      ("dedup_hits", Json.Int st.n_dedup);
      ("retries", Json.Int st.n_retries);
      ("worker_kills", Json.Int st.n_kills);
      ("respawns", Json.Int respawns);
      ("ewma_ms", Json.Float st.ewma_ms);
    ]
  in
  Mutex.unlock st.lock;
  Array.sort compare lats;
  let frame =
    Json.to_string
      (Json.Obj
         (counters
         @ [
             ("p50_ms", Json.Float (percentile lats 0.50));
             ("p95_ms", Json.Float (percentile lats 0.95));
             ("p99_ms", Json.Float (percentile lats 0.99));
           ]))
  in
  Mutex.lock st.emit_lock;
  emit_locked st frame;
  Mutex.unlock st.emit_lock

(* an {"op":"stats"} control line: answered out-of-band, never counted as
   a request *)
let is_stats_request line =
  match Json.parse line with
  | Error _ -> false
  | Ok j -> (
      match Json.member "op" j with
      | Some (Json.Str "stats") -> true
      | _ -> false)

let run ?metrics cfg ~next ~emit =
  Atomic.set drain_flag false;
  let jobs_target = Parallel.effective_jobs cfg.jobs in
  let cache_hits0, cache_misses0 =
    match cfg.cache with
    | Some c -> (Parallel.Cache.hits c, Parallel.Cache.misses c)
    | None -> (0, 0)
  in
  let st =
    {
      cfg;
      jobs_target;
      pool =
        (if jobs_target <= 1 then None
         else Some (Parallel.create ~jobs:jobs_target));
      emit;
      emit_lock = Mutex.create ();
      emit_failure = Atomic.make None;
      lock = Mutex.create ();
      progress = Condition.create ();
      responses = Hashtbl.create 64;
      next_emit = 0;
      next_seq = 0;
      pending = 0;
      inflight = Hashtbl.create 64;
      t0s = Hashtbl.create 64;
      lats = Queue.create ();
      kill_pending = cfg.kill_at;
      n_received = 0;
      n_ok = 0;
      n_errors = 0;
      n_bad = 0;
      n_shed = 0;
      n_dedup = 0;
      n_retries = 0;
      n_kills = 0;
      ewma_ms = 0.0;
      max_pending = 0;
    }
  in
  let capacity = max 1 cfg.queue_capacity in
  let t_start = Clock.now_ns () in
  (* ---- intake ---- *)
  let last_stats = ref t_start in
  let rec intake () =
    if Atomic.get drain_flag || Option.is_some (Atomic.get st.emit_failure)
    then ()
    else
      match next () with
      | None -> ()
      | Some line when is_stats_request line ->
          (* control line: answer out-of-band, unsequenced and uncounted *)
          emit_stats_frame st;
          intake ()
      | Some line ->
          Mutex.lock st.lock;
          st.n_received <- st.n_received + 1;
          let seq = st.next_seq in
          st.next_seq <- seq + 1;
          let item =
            match parse_request line with
            | Error msg ->
                Hashtbl.replace st.responses seq (bad_line msg);
                st.n_bad <- st.n_bad + 1;
                None
            | Ok req when st.pending >= capacity ->
                (* bounded queue: explicit shed, never a silent drop; the
                   hint tells the client when capacity should free up *)
                let retry_after_ms = retry_after_ms_locked st in
                Hashtbl.replace st.responses seq
                  (overloaded_line req.id ~retry_after_ms);
                st.n_shed <- st.n_shed + 1;
                Pv_obs.Log.warn st.cfg.log "shed"
                  ~fields:
                    [
                      ("id", Pv_obs.Json.Str req.id);
                      ("pending", Pv_obs.Json.Int st.pending);
                      ("retry_after_ms", Pv_obs.Json.Int retry_after_ms);
                    ];
                None
            | Ok req -> (
                st.pending <- st.pending + 1;
                if st.pending > st.max_pending then
                  st.max_pending <- st.pending;
                Hashtbl.replace st.t0s seq (Clock.now_ns ());
                let key = request_key req in
                match Hashtbl.find_opt st.inflight key with
                | Some ws ->
                    (* identical request already in flight: wait on it *)
                    ws := (seq, req.id) :: !ws;
                    st.n_dedup <- st.n_dedup + 1;
                    None
                | None ->
                    Hashtbl.add st.inflight key (ref [ (seq, req.id) ]);
                    Some { t_seq = seq; t_key = key; t_req = req })
          in
          (* a bad or shed line is answered here, not by a worker *)
          let answered = Hashtbl.mem st.responses seq in
          Mutex.unlock st.lock;
          if answered then flush st;
          (match (item, st.pool) with
          | None, _ -> ()
          | Some item, Some pool -> Parallel.submit pool (pooled st pool item)
          | Some item, None ->
              (* inline: no domain to end, so a kill is counted and the
                 item computed at once *)
              ignore (killed st item);
              process st item);
          (match cfg.stats_interval with
          | Some iv when Clock.elapsed_s !last_stats >= iv ->
              last_stats := Clock.now_ns ();
              emit_stats_frame st
          | _ -> ());
          intake ()
  in
  intake ();
  (* ---- drain ---- *)
  Pv_obs.Log.info cfg.log "drain"
    ~fields:[ ("pending", Pv_obs.Json.Int st.pending) ];
  Mutex.lock st.lock;
  while st.pending > 0 do
    Condition.wait st.progress st.lock
  done;
  Mutex.unlock st.lock;
  Option.iter Parallel.shutdown st.pool;
  flush st;
  Option.iter
    (fun (e, bt) -> Printexc.raise_with_backtrace e bt)
    (Atomic.get st.emit_failure);
  (* ---- summary ---- *)
  let wall_s = Clock.elapsed_s t_start in
  let lats = Array.of_seq (Queue.to_seq st.lats) in
  Array.sort compare lats;
  let responded = st.next_emit in
  let cache_hits, cache_misses =
    match cfg.cache with
    | Some c ->
        (Parallel.Cache.hits c - cache_hits0,
         Parallel.Cache.misses c - cache_misses0)
    | None -> (0, 0)
  in
  let summary =
    {
      received = st.n_received;
      responded;
      ok = st.n_ok;
      errors = st.n_errors;
      bad_requests = st.n_bad;
      shed = st.n_shed;
      dedup_hits = st.n_dedup;
      retries = st.n_retries;
      worker_kills = st.n_kills;
      respawns = Option.fold ~none:0 ~some:Parallel.respawns st.pool;
      cache_hits;
      cache_misses;
      lost = st.n_received - responded;
      wall_s;
      requests_per_s =
        (if wall_s > 0.0 then float_of_int st.n_received /. wall_s else 0.0);
      p50_ms = percentile lats 0.50;
      p95_ms = percentile lats 0.95;
      p99_ms = percentile lats 0.99;
    }
  in
  (match metrics with
  | None -> ()
  | Some m ->
      let module M = Pv_obs.Metrics in
      M.add m "serve.received" summary.received;
      M.add m "serve.ok" summary.ok;
      M.add m "serve.errors" summary.errors;
      M.add m "serve.bad_requests" summary.bad_requests;
      M.add m "serve.shed" summary.shed;
      M.add m "serve.dedup_hits" summary.dedup_hits;
      M.add m "serve.retries" summary.retries;
      M.add m "serve.worker_kills" summary.worker_kills;
      M.add m "serve.respawns" summary.respawns;
      M.add m "serve.lost" summary.lost;
      M.add m "serve.p50_ms" (int_of_float (Float.round summary.p50_ms));
      M.add m "serve.p95_ms" (int_of_float (Float.round summary.p95_ms));
      M.add m "serve.p99_ms" (int_of_float (Float.round summary.p99_ms));
      M.set_gauge_max m "serve.queue_depth_max" st.max_pending;
      Option.iter (fun c -> Parallel.Cache.record_metrics c m) cfg.cache);
  Pv_obs.Log.info cfg.log "serve_done"
    ~fields:
      [
        ("received", Pv_obs.Json.Int summary.received);
        ("ok", Pv_obs.Json.Int summary.ok);
        ("errors", Pv_obs.Json.Int summary.errors);
        ("shed", Pv_obs.Json.Int summary.shed);
        ("worker_kills", Pv_obs.Json.Int summary.worker_kills);
      ];
  summary
