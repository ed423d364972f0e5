(* The Domain-parallel experiment runner and result cache (DESIGN.md §14).

   The load-bearing properties:
   - Parallel.map is order-preserving and exception-transparent, and with
     jobs <= 1 is exactly the serial reference.
   - The same experiment grid computed on 1 worker and on N genuinely
     concurrent workers (a forced pool, deliberately oversubscribing a
     small machine) is identical point for point — the assertion behind
     the shared-mutable-state audit: every job compiles, simulates and
     elaborates from private state.
   - A cache hit returns a result identical to the cold computation
     (qcheck property over generated kernels), in memory and across
     cache instances sharing a directory (the cross-process case). *)

open Pv_core

exception Boom of int

let test_map_matches_serial () =
  let xs = List.init 100 (fun i -> i) in
  let f x = (x * x) + 1 in
  Alcotest.(check (list int)) "jobs=4" (List.map f xs) (Parallel.map ~jobs:4 f xs);
  Alcotest.(check (list int)) "jobs=1" (List.map f xs) (Parallel.map ~jobs:1 f xs);
  Alcotest.(check (list int)) "empty" [] (Parallel.map ~jobs:4 f [])

let test_map_order_under_skew () =
  (* earlier elements do the most work, so a racy implementation would
     return them last *)
  let xs = List.init 32 (fun i -> i) in
  let f i =
    let spin = (32 - i) * 10_000 in
    let acc = ref 0 in
    for k = 1 to spin do
      acc := !acc + k
    done;
    (i, !acc)
  in
  let pool = Parallel.create ~jobs:4 in
  Fun.protect
    ~finally:(fun () -> Parallel.shutdown pool)
    (fun () ->
      Alcotest.(check (list (pair int int)))
        "order preserved" (List.map f xs)
        (Parallel.map_pool pool f xs))

let test_map_exception () =
  let f x = if x = 7 then raise (Boom x) else x in
  Alcotest.check_raises "raises Boom 7" (Boom 7) (fun () ->
      ignore (Parallel.map ~jobs:4 f (List.init 20 Fun.id)));
  (* smallest failing index wins when several jobs raise *)
  let g x = if x >= 5 then raise (Boom x) else x in
  Alcotest.check_raises "raises Boom 5" (Boom 5) (fun () ->
      ignore (Parallel.map ~jobs:4 g (List.init 20 Fun.id)))

let test_pool_drains_queue () =
  let pool = Parallel.create ~jobs:3 in
  let lock = Mutex.create () in
  let count = ref 0 in
  for _ = 1 to 500 do
    Parallel.submit pool (fun () ->
        Mutex.lock lock;
        incr count;
        Mutex.unlock lock)
  done;
  Parallel.shutdown pool;
  Alcotest.(check int) "all jobs ran" 500 !count;
  Alcotest.check_raises "submit after shutdown"
    (Invalid_argument "Parallel.submit: pool is shut down") (fun () ->
      Parallel.submit pool (fun () -> ()))

(* Poll [cond] until it holds or [seconds] pass; true if it held. *)
let wait_until ~seconds cond =
  let t0 = Unix.gettimeofday () in
  while (not (cond ())) && Unix.gettimeofday () -. t0 < seconds do
    Unix.sleepf 0.001
  done;
  cond ()

let test_shutdown_joins_every_worker () =
  (* 3 workers, 3 jobs; each job notes its domain, registers an exit hook
     there and holds until all three domains are busy, so every worker
     runs exactly one.  [shutdown] must join all three: their exit hooks
     have run by the time it returns *)
  let pool = Parallel.create ~jobs:3 in
  let lock = Mutex.create () in
  let seen = ref [] and exited = Atomic.make 0 in
  let n_seen () =
    Mutex.lock lock;
    let n = List.length !seen in
    Mutex.unlock lock;
    n
  in
  for _ = 1 to 3 do
    Parallel.submit pool (fun () ->
        let self = (Domain.self () :> int) in
        Mutex.lock lock;
        if not (List.mem self !seen) then begin
          seen := self :: !seen;
          Domain.at_exit (fun () -> Atomic.incr exited)
        end;
        Mutex.unlock lock;
        if not (wait_until ~seconds:30.0 (fun () -> n_seen () >= 3)) then
          failwith "three workers never ran at once")
  done;
  Parallel.shutdown pool;
  Alcotest.(check int) "three domains ran jobs" 3 (n_seen ());
  Alcotest.(check (list int)) "one job per worker" [ 1; 1; 1 ]
    (Parallel.worker_jobs pool);
  Alcotest.(check int) "shutdown joined all three" 3 (Atomic.get exited);
  Parallel.shutdown pool;
  Alcotest.(check int) "a second shutdown is a no-op" 3 (Atomic.get exited)

let test_raising_job_surfaces_at_shutdown () =
  (* jobs must not raise; one that does ends its worker, and [shutdown]
     re-raises its exception instead of hiding it *)
  let pool = Parallel.create ~jobs:1 in
  let ran = Atomic.make 0 in
  Parallel.submit pool (fun () -> Atomic.incr ran);
  Parallel.submit pool (fun () -> raise (Boom 3));
  Alcotest.check_raises "shutdown re-raises the job's exception" (Boom 3)
    (fun () -> Parallel.shutdown pool);
  Alcotest.(check int) "the job before it ran" 1 (Atomic.get ran);
  Alcotest.(check (list int)) "only the completed job is tallied" [ 1 ]
    (Parallel.worker_jobs pool)

(* ------------------------------------------------------------------ *)
(* One domain pool: grep-enforced                                      *)
(* ------------------------------------------------------------------ *)

let test_spawn_only_in_parallel () =
  match Source_tree.root (Sys.getcwd ()) with
  | None ->
      (* outside a checkout (e.g. an installed test binary): nothing to scan *)
      print_endline "source tree not found; skipping scan"
  | Some root ->
      let allowed = Filename.concat root "lib/core/parallel.ml" in
      let offenders =
        List.concat_map
          (fun sub ->
            Source_tree.ml_files (Filename.concat root sub)
            |> List.filter (fun file ->
                   file <> allowed
                   && In_channel.with_open_bin file In_channel.input_all
                      |> Source_tree.contains ~needle:"Domain.spawn"))
          [ "lib"; "bin" ]
      in
      Alcotest.(check (list string))
        "Domain.spawn outside lib/core/parallel.ml" [] offenders

(* ------------------------------------------------------------------ *)
(* Result cache                                                        *)
(* ------------------------------------------------------------------ *)

let test_cache_memo_in_memory () =
  let cache = Parallel.Cache.in_memory () in
  let calls = ref 0 in
  let compute () =
    incr calls;
    ([ 1; 2; 3 ], "payload")
  in
  let v1, s1 = Parallel.Cache.memo cache ~key:"k" compute in
  let v2, s2 = Parallel.Cache.memo cache ~key:"k" compute in
  Alcotest.(check bool) "first is miss" true (s1 = `Miss);
  Alcotest.(check bool) "second is hit" true (s2 = `Hit);
  Alcotest.(check bool) "same value" true (v1 = v2);
  Alcotest.(check int) "computed once" 1 !calls;
  Alcotest.(check int) "hits" 1 (Parallel.Cache.hits cache);
  Alcotest.(check int) "misses" 1 (Parallel.Cache.misses cache)

let test_cache_shared_directory () =
  let dir = Filename.temp_dir "prevv_cache_test" "" in
  let a = Parallel.Cache.on_disk ~dir () in
  let v1, s1 = Parallel.Cache.memo a ~key:"point" (fun () -> (42, [| 1; 2 |])) in
  (* a fresh instance over the same directory models a second process *)
  let b = Parallel.Cache.on_disk ~dir () in
  let v2, s2 =
    Parallel.Cache.memo b ~key:"point" (fun () ->
        Alcotest.fail "hit expected, compute ran")
  in
  Alcotest.(check bool) "cold miss" true (s1 = `Miss);
  Alcotest.(check bool) "cross-instance hit" true (s2 = `Hit);
  Alcotest.(check bool) "same value" true (v1 = v2);
  (* a corrupt entry decodes as a miss, not a crash *)
  let oc = open_out_bin (Filename.concat dir "broken.bin") in
  output_string oc "not a marshalled value";
  close_out oc;
  let v3, s3 = Parallel.Cache.memo b ~key:"broken" (fun () -> 7) in
  Alcotest.(check bool) "corrupt entry is a miss" true (s3 = `Miss);
  Alcotest.(check int) "recomputed" 7 v3

(* ------------------------------------------------------------------ *)
(* The experiment grid: 1 worker vs N genuinely concurrent workers     *)
(* ------------------------------------------------------------------ *)

let grid_cells () =
  List.concat_map
    (fun k -> List.map (fun d -> (k, d)) (Experiment.paper_configs ()))
    (Pv_kernels.Defs.paper_benchmarks ())

let test_grid_serial_vs_concurrent () =
  let cells = grid_cells () in
  let serial = List.map (fun (k, d) -> Experiment.run k d) cells in
  (* a forced 4-worker pool: genuinely concurrent even on one core, so
     any shared mutable state in compile/simulate/elaborate would race *)
  let pool = Parallel.create ~jobs:4 in
  let concurrent =
    Fun.protect
      ~finally:(fun () -> Parallel.shutdown pool)
      (fun () ->
        Parallel.map_pool pool (fun (k, d) -> Experiment.run k d) cells)
  in
  List.iter2
    (fun (a : Experiment.point) (b : Experiment.point) ->
      if a <> b then
        Alcotest.failf "grid point %s/%s differs between 1 and 4 workers"
          a.Experiment.kernel a.Experiment.config)
    serial concurrent;
  (* the JSON rendering (the bench/CLI byte-identity surface) agrees too *)
  Alcotest.(check (list string))
    "rendered points byte-identical"
    (List.map Experiment.point_to_json serial)
    (List.map Experiment.point_to_json concurrent)

let test_same_cell_concurrently () =
  (* many copies of one cell racing through one pool: catches hidden
     shared state that the disjoint-cells grid test would miss.  The odd
     copies share one compiled graph, whose schedule each run fills for
     itself (in Sim.create, and in Prescience.walk under the oracle). *)
  let kernel = Pv_kernels.Defs.gaussian () in
  let compiled = Pipeline.compile kernel in
  List.iter
    (fun dis ->
      let reference = Experiment.run kernel dis in
      let pool = Parallel.create ~jobs:4 in
      let copies =
        Fun.protect
          ~finally:(fun () -> Parallel.shutdown pool)
          (fun () ->
            Parallel.map_pool pool
              (fun i ->
                if i mod 2 = 0 then Experiment.run kernel dis
                else Experiment.run ~compiled kernel dis)
              (List.init 8 Fun.id))
      in
      List.iteri
        (fun i p ->
          if p <> reference then Alcotest.failf "concurrent copy %d diverged" i)
        copies)
    [ Scheme.prevv 16; Scheme.oracle ]

let test_paper_grid_jobs_param () =
  (* the public driver: whatever the requested job count, same rows *)
  let a = Experiment.paper_grid () in
  let b = Experiment.paper_grid ~jobs:4 () in
  Alcotest.(check bool) "paper_grid jobs-invariant" true (a = b)

(* ------------------------------------------------------------------ *)
(* qcheck: a cache hit equals the cold computation                     *)
(* ------------------------------------------------------------------ *)

let prop_cache_hit_equals_cold =
  QCheck2.Test.make ~name:"cache hit = cold computation" ~count:8
    ~print:string_of_int
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let kernel = Pv_kernels.Generate.kernel seed in
      let init = Pv_kernels.Generate.init_for kernel seed in
      let dis = Scheme.fast_lsq in
      let cache = Parallel.Cache.in_memory () in
      let cold, s1 = Experiment.run_cached ~init ~cache kernel dis in
      let hit, s2 = Experiment.run_cached ~init ~cache kernel dis in
      s1 = `Miss && s2 = `Hit && cold = hit
      (* and the key separates configurations: a different scheme never
         aliases the stored point *)
      && Experiment.cache_key ~init kernel dis
         <> Experiment.cache_key ~init kernel (Scheme.prevv 16))

let () =
  Alcotest.run "parallel"
    [
      ( "map",
        [
          Alcotest.test_case "matches serial map" `Quick test_map_matches_serial;
          Alcotest.test_case "order under skewed work" `Quick
            test_map_order_under_skew;
          Alcotest.test_case "exception transparency" `Quick test_map_exception;
          Alcotest.test_case "pool drains queue" `Quick test_pool_drains_queue;
          Alcotest.test_case "shutdown joins every worker" `Quick
            test_shutdown_joins_every_worker;
          Alcotest.test_case "a raising job surfaces at shutdown" `Quick
            test_raising_job_surfaces_at_shutdown;
          Alcotest.test_case "Domain.spawn only in Parallel" `Quick
            test_spawn_only_in_parallel;
        ] );
      ( "cache",
        [
          Alcotest.test_case "memo in memory" `Quick test_cache_memo_in_memory;
          Alcotest.test_case "shared directory" `Quick test_cache_shared_directory;
          QCheck_alcotest.to_alcotest prop_cache_hit_equals_cold;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "grid: 1 vs 4 workers" `Quick
            test_grid_serial_vs_concurrent;
          Alcotest.test_case "same cell raced 8x" `Quick
            test_same_cell_concurrently;
          Alcotest.test_case "paper_grid jobs param" `Quick
            test_paper_grid_jobs_param;
        ] );
    ]
