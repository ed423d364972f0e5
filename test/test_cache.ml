(* Robustness of the content-addressed result cache (Parallel.Cache):
   framed disk entries, sharded layout, miss-and-repair on every corrupt
   state, stale-temp sweeping, eviction accounting, and the advisory-lock
   + atomic-rename publish protocol under 8 concurrent writer
   processes. *)

open Pv_core
module Cache = Parallel.Cache

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "prevv_cache_test_%d_%d" (Unix.getpid ()) !n)
    in
    Unix.mkdir d 0o700;
    d

let rec rm_rf p =
  if Sys.is_directory p then begin
    Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
    Unix.rmdir p
  end
  else Sys.remove p

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> try rm_rf dir with _ -> ()) (fun () -> f dir)

let value_of key = "payload:" ^ key ^ ":" ^ String.make 64 'x'
let compute key () = value_of key
let entry_path dir key = Filename.concat (Filename.concat dir (String.sub key 0 2)) (key ^ ".bin")

(* ------------------------------------------------------------------ *)
(* Layout                                                              *)
(* ------------------------------------------------------------------ *)

let test_sharded_layout () =
  with_dir (fun dir ->
      let c = Cache.on_disk ~dir () in
      let v, flag = Cache.memo c ~key:"deadbeef" (compute "deadbeef") in
      Alcotest.(check string) "computed" (value_of "deadbeef") v;
      Alcotest.(check bool) "first is a miss" true (flag = `Miss);
      Alcotest.(check bool)
        "entry lands at dir/<key[0..1]>/<key>.bin" true
        (Sys.file_exists (entry_path dir "deadbeef"));
      (* a second process (fresh instance, cold memory) hits from disk *)
      let c2 = Cache.on_disk ~dir () in
      let v2, flag2 = Cache.memo c2 ~key:"deadbeef" (fun () -> "WRONG") in
      Alcotest.(check string) "disk hit returns stored value" (value_of "deadbeef") v2;
      Alcotest.(check bool) "disk hit" true (flag2 = `Hit);
      Alcotest.(check int) "hit counted" 1 (Cache.hits c2))

(* ------------------------------------------------------------------ *)
(* Corruption = miss and repair                                        *)
(* ------------------------------------------------------------------ *)

let corrupt_then_recover ~name corrupt =
  with_dir (fun dir ->
      let key = "abcdef01" in
      let c = Cache.on_disk ~dir () in
      ignore (Cache.memo c ~key (compute key));
      corrupt (entry_path dir key);
      (* a fresh instance (cold memory) must treat the damaged entry as a
         miss, recompute, count a repair, and rewrite the entry *)
      let c2 = Cache.on_disk ~dir () in
      let v, flag = Cache.memo c2 ~key (compute key) in
      Alcotest.(check string) (name ^ ": recomputed value") (value_of key) v;
      Alcotest.(check bool) (name ^ ": corrupt entry is a miss") true (flag = `Miss);
      Alcotest.(check bool) (name ^ ": repair counted") true (Cache.repairs c2 >= 1);
      (* repaired on disk: a third cold instance hits cleanly *)
      let c3 = Cache.on_disk ~dir () in
      let v3, flag3 = Cache.memo c3 ~key (fun () -> "WRONG") in
      Alcotest.(check string) (name ^ ": entry rewritten") (value_of key) v3;
      Alcotest.(check bool) (name ^ ": subsequent hit") true (flag3 = `Hit);
      Alcotest.(check int) (name ^ ": no repair on clean entry") 0
        (Cache.repairs c3))

let test_truncated_entry () =
  corrupt_then_recover ~name:"truncated" (fun p -> Unix.truncate p 5)

let test_garbage_entry () =
  corrupt_then_recover ~name:"garbage" (fun p ->
      let oc = open_out_bin p in
      output_string oc (String.make 200 '\xCF');
      close_out oc)

let test_wrong_digest_entry () =
  (* right magic, torn payload: the frame digest must reject it *)
  corrupt_then_recover ~name:"bad digest" (fun p ->
      let ic = open_in_bin p in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let b = Bytes.of_string s in
      Bytes.set b (Bytes.length b - 1) '\000';
      let oc = open_out_bin p in
      output_bytes oc b;
      close_out oc)

let test_random_garbage_never_raises () =
  (* whatever bytes sit at the entry path, memo must return the computed
     value and never raise *)
  with_dir (fun dir ->
      let st = Random.State.make [| 0x5EED |] in
      for i = 0 to 19 do
        let key = Printf.sprintf "fuzz%04d" i in
        let p = entry_path dir key in
        let shard = Filename.dirname p in
        (try Unix.mkdir shard 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
        let len = Random.State.int st 300 in
        let oc = open_out_bin p in
        for _ = 1 to len do
          output_char oc (Char.chr (Random.State.int st 256))
        done;
        close_out oc;
        let c = Cache.on_disk ~dir () in
        let v, _ = Cache.memo c ~key (compute key) in
        Alcotest.(check string)
          (Printf.sprintf "fuzz entry %d recovered" i)
          (value_of key) v
      done)

(* ------------------------------------------------------------------ *)
(* Crashed-writer temp files                                           *)
(* ------------------------------------------------------------------ *)

let test_stale_tmp_sweep () =
  with_dir (fun dir ->
      let shard = Filename.concat dir "ab" in
      Unix.mkdir shard 0o700;
      let plant name age_s =
        let p = Filename.concat shard name in
        let oc = open_out_bin p in
        output_string oc "half-written";
        close_out oc;
        let t = Unix.gettimeofday () -. age_s in
        Unix.utimes p t t;
        p
      in
      (* a crashed writer's hour-old leftover, and a racing writer's
         fresh staging file *)
      let stale = plant "abcd1234.bin.tmp.999.0" 3600.0 in
      let live = plant "abcd9999.bin.tmp.888.1" 0.0 in
      ignore (Cache.on_disk ~dir ());
      Alcotest.(check bool) "stale tmp swept" false (Sys.file_exists stale);
      Alcotest.(check bool) "fresh tmp kept" true (Sys.file_exists live);
      (* the leftover never shadows the real entry *)
      let c = Cache.on_disk ~dir () in
      let v, flag = Cache.memo c ~key:"abcd1234" (compute "abcd1234") in
      Alcotest.(check string) "value recomputed" (value_of "abcd1234") v;
      Alcotest.(check bool) "tmp is not an entry" true (flag = `Miss))

(* ------------------------------------------------------------------ *)
(* Concurrent multi-process writers                                    *)
(* ------------------------------------------------------------------ *)

let test_concurrent_writers () =
  (* 8 processes hammer the same 24 keys through their own cache
     instances.  The publish protocol must leave every entry whole:
     every process reads back exactly the deterministic value, and the
     survivors on disk all pass the frame check. *)
  with_dir (fun dir ->
      let n_procs = 8 and n_keys = 24 and n_rounds = 5 in
      let keys = List.init n_keys (Printf.sprintf "cc%06x") in
      let child () =
        let ok = ref true in
        (try
           for _ = 1 to n_rounds do
             let c = Cache.on_disk ~dir () in
             List.iter
               (fun key ->
                 let v, _ = Cache.memo c ~key (compute key) in
                 if v <> value_of key then ok := false)
               keys
           done
         with _ -> ok := false);
        (* _exit: never run the parent's at_exit/Alcotest machinery *)
        Unix._exit (if !ok then 0 else 1)
      in
      let pids =
        List.init n_procs (fun _ ->
            match Unix.fork () with 0 -> child () | pid -> pid)
      in
      List.iter
        (fun pid ->
          match Unix.waitpid [] pid with
          | _, Unix.WEXITED 0 -> ()
          | _, Unix.WEXITED c ->
              Alcotest.failf "writer process saw a torn value (exit %d)" c
          | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) ->
              Alcotest.failf "writer process died with signal %d" s)
        pids;
      (* no torn survivors: a cold instance hits every key from disk *)
      let c = Cache.on_disk ~dir () in
      List.iter
        (fun key ->
          let v, flag = Cache.memo c ~key (fun () -> "WRONG") in
          Alcotest.(check string) ("final value of " ^ key) (value_of key) v;
          Alcotest.(check bool) ("final " ^ key ^ " on disk") true (flag = `Hit))
        keys;
      Alcotest.(check int) "no repairs needed afterwards" 0 (Cache.repairs c))

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)
(* ------------------------------------------------------------------ *)

let test_eviction_counter () =
  let c = Cache.in_memory ~max_mem:4 () in
  List.iter
    (fun i ->
      let key = Printf.sprintf "k%02d" i in
      ignore (Cache.memo c ~key (compute key)))
    (List.init 10 Fun.id);
  Alcotest.(check int) "misses" 10 (Cache.misses c);
  Alcotest.(check int) "evictions beyond the cap" 6 (Cache.evictions c);
  (* an evicted key recomputes (memory-only cache: nothing on disk) *)
  let _, flag = Cache.memo c ~key:"k00" (compute "k00") in
  Alcotest.(check bool) "evicted key is a miss" true (flag = `Miss)

let test_metrics_export () =
  with_dir (fun dir ->
      let c = Cache.on_disk ~dir () in
      ignore (Cache.memo c ~key:"aa11" (compute "aa11"));
      ignore (Cache.memo c ~key:"aa11" (compute "aa11"));
      let m = Pv_obs.Metrics.create () in
      Cache.record_metrics c m;
      Alcotest.(check int) "cache.hits" 1 (Pv_obs.Metrics.counter_value m "cache.hits");
      Alcotest.(check int) "cache.misses" 1 (Pv_obs.Metrics.counter_value m "cache.misses");
      Alcotest.(check int) "cache.repairs" 0 (Pv_obs.Metrics.counter_value m "cache.repairs");
      Cache.reset_stats c;
      Alcotest.(check int) "reset" 0 (Cache.hits c))

(* ------------------------------------------------------------------ *)
(* A caller's compile                                                  *)
(* ------------------------------------------------------------------ *)

(* A point run on a compile the caller already holds (the serve path's
   fault-plan sizing) is the point a fresh compile gives, cached or not. *)
let test_precompiled_point () =
  let kernel = Pv_kernels.Defs.histogram ~n:32 () in
  let dis = Scheme.prevv 16 in
  let json = Experiment.point_to_json in
  let fresh = json (Experiment.run kernel dis) in
  let compiled = Pipeline.compile kernel in
  Alcotest.(check string) "run ~compiled" fresh
    (json (Experiment.run ~compiled kernel dis));
  let c = Cache.in_memory () in
  let p, flag = Experiment.run_cached ~compiled ~cache:c kernel dis in
  Alcotest.(check bool) "miss" true (flag = `Miss);
  Alcotest.(check string) "run_cached ~compiled" fresh (json p)

let () =
  Alcotest.run "cache"
    [
      ("layout", [ Alcotest.test_case "sharded path + disk hit" `Quick test_sharded_layout ]);
      ( "repair",
        [
          Alcotest.test_case "truncated entry" `Quick test_truncated_entry;
          Alcotest.test_case "garbage entry" `Quick test_garbage_entry;
          Alcotest.test_case "bad digest entry" `Quick test_wrong_digest_entry;
          Alcotest.test_case "random garbage never raises" `Quick
            test_random_garbage_never_raises;
        ] );
      ( "crash",
        [ Alcotest.test_case "stale tmp swept, fresh kept" `Quick test_stale_tmp_sweep ] );
      ( "concurrency",
        [ Alcotest.test_case "8 writer processes, no torn reads" `Quick
            test_concurrent_writers ] );
      ( "counters",
        [
          Alcotest.test_case "eviction accounting" `Quick test_eviction_counter;
          Alcotest.test_case "metrics export" `Quick test_metrics_export;
        ] );
      ( "run",
        [
          Alcotest.test_case "precompiled point" `Quick test_precompiled_point;
        ] );
    ]
