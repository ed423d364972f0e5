(* serve_open: a seeded open-loop LDJSON request stream through
   [Service.run], timed from outside at the [emit] callback. *)

open Pv_core
module W = Pv_kernels.Workload

(* offered rate, about a fifth of the two-worker capacity of the stream
   below (about 1,000 req/s): nearer half of it, short stalls of the host
   queued enough requests to swing p95 by a factor of three *)
let rate_rps = 200.0

type req = {
  due_ns : int;  (** offset of the request's due time from the stream start *)
  line : string;
  request : Service.request;
}

(* The stream comes in rounds: every (kernel, paper configuration) pair
   once as a cold request, in a seeded order, each fourth one followed by a
   repeat of a seeded earlier request, so a fifth of the requests repeat
   (cache or dedup hits).  Whole rounds keep a stream's work mix the same
   for every seed; only order, arrival times and repeats vary.  The kernels
   are the bundled ones that compile and simulate in a few milliseconds:
   the heavy kernels are paper_grid's and squash_storm's, and here a single
   75 ms request held every later response back (responses leave in
   arrival order), so the latency percentiles followed how the seed placed
   a handful of requests. *)
let kernels =
  [ "histogram"; "fn_dependent"; "cond_update"; "spmv_like"; "fir_smooth"; "stencil1d"; "running_max" ]

let pairs () =
  List.concat_map
    (fun k -> List.map (fun d -> (k, Scheme.to_string d)) (Experiment.paper_configs ()))
    kernels
  |> Array.of_list

let round_len = Array.length (pairs ()) * 5 / 4

(* [rounds] rounds with Poisson arrivals at [rate_rps].  The gaps are
   stratified: the n exponential quantiles at (i + 1/2)/n in a seeded
   order, so every stream offers exactly the same gap distribution.  Cold
   request i carries recoverable fault plan i + 1, so its cache key is new
   within the stream and the set of computations is the same for every
   seed. *)
let stream ~seed ~rounds =
  let r = W.rng (seed + 1) in
  let pairs = pairs () in
  let n_total = rounds * round_len in
  let gaps =
    Workloads.shuffle (W.int r 1_000_000_007)
      (Array.init n_total (fun i ->
           -.log (1.0 -. ((float_of_int i +. 0.5) /. float_of_int n_total)) /. rate_rps))
  in
  let cold = Array.make (rounds * Array.length pairs) None in
  let n_cold = ref 0 and t = ref 0.0 in
  let out = ref [] and n = ref 0 in
  let emit (request : Service.request) =
    let request = { request with Service.id = Printf.sprintf "r%d" !n } in
    t := !t +. gaps.(!n);
    out :=
      { due_ns = int_of_float (!t *. 1e9); line = Service.request_to_json request; request }
      :: !out;
    incr n
  in
  for _ = 1 to rounds do
    let order = Workloads.shuffle (W.int r 1_000_000_007) (Array.init (Array.length pairs) Fun.id) in
    Array.iteri
      (fun j i ->
        let kernel, backend = pairs.(i) in
        let c = Service.request ~id:"" ~kernel ~backend ~fault_seed:(!n_cold + 1) () in
        cold.(!n_cold) <- Some c;
        incr n_cold;
        emit c;
        if (j + 1) mod 4 = 0 then emit (Option.get cold.(W.int r !n_cold)))
      order
  done;
  Array.of_list (List.rev !out)

type run = {
  summary : Service.summary;
  bodies : string array;  (** response lines, in request order *)
  lat_ms : float array;  (** due time -> emit, per request *)
  late_ms : float array;  (** how late the generator handed each line over *)
  dispatch_s : float;  (** when the last line was handed over *)
  wall_s : float;
  metrics : Pv_obs.Metrics.t;
}

let config ~jobs ~n =
  {
    Service.default_config with
    jobs;
    queue_capacity = n + 1;
    cache = Some (Parallel.Cache.in_memory ());
  }

(* [paced = true]: each line is handed over at its due time (open loop);
   [false]: the whole stream is offered at once *)
let drive ~jobs ~paced (s : req array) =
  let n = Array.length s in
  let bodies = Array.make n "" in
  let lat_ms = Array.make n 0.0 in
  let late_ms = Array.make n 0.0 in
  let metrics = Pv_obs.Metrics.create () in
  let t0 = Mono.now () in
  let due i = if paced then t0 + s.(i).due_ns else t0 in
  let next_i = ref 0 and emitted = ref 0 and last = ref t0 in
  let next () =
    let i = !next_i in
    if i >= n then None
    else begin
      let wait = due i - Mono.now () in
      if wait > 0 then Unix.sleepf (float_of_int wait /. 1e9);
      late_ms.(i) <- Float.max 0.0 (Mono.ms_of_ns (Mono.now () - due i));
      incr next_i;
      last := Mono.now ();
      Some s.(i).line
    end
  in
  (* responses arrive in request order *)
  let emit line =
    let i = !emitted in
    if i < n then begin
      lat_ms.(i) <- Mono.ms_of_ns (Mono.now () - due i);
      bodies.(i) <- line
    end;
    incr emitted
  in
  let summary = Service.run ~metrics (config ~jobs ~n) ~next ~emit in
  {
    summary;
    bodies;
    lat_ms;
    late_ms;
    dispatch_s = Mono.s_of_ns (!last - t0);
    wall_s = Mono.s_of_ns (Mono.now () - t0);
    metrics;
  }

(* The cell [Service] computes for a request, rebuilt outside the service
   so the traced run can time its layers: the seeded fault plan is sized
   exactly as the service sizes it. *)
let cell_of (q : Service.request) =
  let kernel = Pv_kernels.Defs.by_name q.Service.kernel in
  let dis = Result.get_ok (Scheme.of_string q.Service.backend) in
  let base = Pv_dataflow.Sim.default_config in
  let faults =
    match q.Service.fault_seed with
    | None -> []
    | Some seed ->
        let c = Pipeline.compile kernel in
        let instances = Pv_frontend.Trace.length c.Pipeline.trace in
        Pv_dataflow.Fault.random_recoverable ~seed
          ~n_chans:(Pv_dataflow.Graph.n_chans c.Pipeline.graph)
          ~max_seq:instances
          ~horizon:(100 + (4 * instances))
          ()
  in
  let (module M : Scheme.S) = Scheme.of_disambiguation dis in
  {
    Cell.label = q.Service.id;
    source = Cell.Kernel kernel;
    init = None;
    sim = Some (M.name, dis);
    sim_cfg = { base with Pv_dataflow.Sim.engine = q.Service.engine; faults };
    reports = [ M.elaboration ];
    ref_cycles = None;
  }

(* (cycles, luts, ffs) of an ok response line *)
let response_model line =
  let open Pv_obs.Json in
  match parse line with
  | Error _ -> None
  | Ok j -> (
      match member "result" j with
      | None -> None
      | Some r -> (
          let get k = Option.bind (member k r) to_int_opt in
          match (get "cycles", get "luts", get "ffs") with
          | Some c, Some l, Some f -> Some (c, l, f)
          | _ -> None))
