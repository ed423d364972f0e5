(** Domain-parallel job execution and result caching — see the .mli. *)

let default_jobs () =
  max 1 (min 8 (Domain.recommended_domain_count () - 1))

(* ------------------------------------------------------------------ *)
(* Worker pool                                                         *)
(* ------------------------------------------------------------------ *)

type pool = {
  queue : (unit -> unit) Queue.t;
  lock : Mutex.t;
  nonempty : Condition.t;  (** signalled on submit and on shutdown *)
  mutable closing : bool;
  mutable workers : unit Domain.t list;
      (** every domain not yet joined, replacements included *)
  mutable respawns : int;
  jobs_done : int array;
      (** per-worker completed-job tallies; each worker writes only its
          own slot, so the counts are race-free without atomics.  Exact
          after {!shutdown}; a live read may lag by the jobs in flight. *)
}

exception End_worker

(* Workers block on [nonempty] until a job or shutdown arrives; the job
   itself runs outside the lock so the queue stays available.  A job that
   raises [End_worker] ends its worker, which first spawns a replacement
   into its slot: the replacement is on [workers] before this domain
   exits, so [shutdown] joins it too. *)
let rec worker pool i () =
  let rec next () =
    if not (Queue.is_empty pool.queue) then Some (Queue.pop pool.queue)
    else if pool.closing then None
    else (
      Condition.wait pool.nonempty pool.lock;
      next ())
  in
  let rec loop () =
    Mutex.lock pool.lock;
    let job = next () in
    Mutex.unlock pool.lock;
    match job with
    | None -> ()
    | Some f -> (
        match f () with
        | () ->
            pool.jobs_done.(i) <- pool.jobs_done.(i) + 1;
            loop ()
        | exception End_worker ->
            let replacement = Domain.spawn (worker pool i) in
            Mutex.lock pool.lock;
            pool.workers <- replacement :: pool.workers;
            pool.respawns <- pool.respawns + 1;
            Mutex.unlock pool.lock)
  in
  loop ()

let create ~jobs =
  let n = max 1 jobs in
  let pool =
    {
      queue = Queue.create ();
      lock = Mutex.create ();
      nonempty = Condition.create ();
      closing = false;
      workers = [];
      respawns = 0;
      jobs_done = Array.make n 0;
    }
  in
  pool.workers <- List.init n (fun i -> Domain.spawn (worker pool i));
  pool

(** Completed jobs per worker (pool-utilisation telemetry). *)
let worker_jobs pool = Array.to_list pool.jobs_done

let respawns pool = pool.respawns

let queued pool =
  Mutex.lock pool.lock;
  let n = Queue.length pool.queue in
  Mutex.unlock pool.lock;
  n

let submit pool f =
  Mutex.lock pool.lock;
  if pool.closing then (
    Mutex.unlock pool.lock;
    invalid_arg "Parallel.submit: pool is shut down");
  Queue.push f pool.queue;
  Condition.signal pool.nonempty;
  Mutex.unlock pool.lock

let shutdown pool =
  Mutex.lock pool.lock;
  pool.closing <- true;
  Condition.broadcast pool.nonempty;
  Mutex.unlock pool.lock;
  (* a worker ending mid-drain adds its replacement before it exits, so
     joining one batch may leave another *)
  let rec join_all () =
    Mutex.lock pool.lock;
    let batch = pool.workers in
    pool.workers <- [];
    Mutex.unlock pool.lock;
    if batch <> [] then (
      List.iter Domain.join batch;
      join_all ())
  in
  join_all ()

let map_pool pool f xs =
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | xs ->
      let arr = Array.of_list xs in
      let n = Array.length arr in
      (* each slot is written by exactly one job; the lock only guards the
         completion counter and the condition *)
      let results = Array.make n None in
      let lock = Mutex.create () in
      let all_done = Condition.create () in
      let pending = ref n in
      Array.iteri
        (fun i x ->
          submit pool (fun () ->
              results.(i) <-
                Some (match f x with v -> Ok v | exception e -> Error e);
              Mutex.lock lock;
              decr pending;
              if !pending = 0 then Condition.signal all_done;
              Mutex.unlock lock))
        arr;
      Mutex.lock lock;
      while !pending > 0 do
        Condition.wait all_done lock
      done;
      Mutex.unlock lock;
      Array.to_list results
      |> List.map (function
           | Some (Ok v) -> v
           | Some (Error e) -> raise e
           | None -> assert false)

(* An explicit job request is honoured exactly: [--jobs 2] runs 2 workers
   whatever [Domain.recommended_domain_count] claims (a clamp to the
   hardware count would collapse any request to 1 worker on machines whose
   recommended count is 1).  Only the *default* job count adapts to the
   machine; a cap of 64 bounds accidental [--jobs 100000] requests. *)
let max_jobs = 64

let effective_jobs jobs = max 1 (min jobs max_jobs)

let map ?jobs f xs =
  let jobs =
    effective_jobs (match jobs with Some j -> j | None -> default_jobs ())
  in
  match xs with
  | [] -> []
  | _ when jobs <= 1 || List.compare_length_with xs 2 < 0 -> List.map f xs
  | xs ->
      let pool = create ~jobs:(min jobs (List.length xs)) in
      Fun.protect
        ~finally:(fun () -> shutdown pool)
        (fun () -> map_pool pool f xs)

(* ------------------------------------------------------------------ *)
(* Result cache                                                        *)
(* ------------------------------------------------------------------ *)

module Cache = struct
  type t = {
    dir : string option;
    mem : (string, string) Hashtbl.t;  (** key -> framed entry *)
    order : string Queue.t;  (** in-memory insertion order, for eviction *)
    max_mem : int;  (** in-memory entry cap; evict FIFO beyond it *)
    lock : Mutex.t;
    mutable n_hits : int;
    mutable n_misses : int;
    mutable n_repairs : int;
    mutable n_evictions : int;
    log : Pv_obs.Log.t;  (** repair events become one Warn line each *)
  }

  let default_dir () =
    match Sys.getenv_opt "PREVV_CACHE_DIR" with
    | Some d when d <> "" -> d
    | _ -> "_prevv_cache"

  let rec mkdir_p dir =
    if not (Sys.file_exists dir) then (
      let parent = Filename.dirname dir in
      if parent <> dir then mkdir_p parent;
      try Sys.mkdir dir 0o755 with Sys_error _ -> ())

  (* --- on-disk entry format -------------------------------------------
     magic 'PVC1' | MD5(payload) (16 bytes) | payload
     The digest turns every torn case — truncated write, short read,
     garbage, a stale pre-framing entry — into a detected corruption,
     which the read path repairs (unlink + miss) instead of decoding. *)

  let magic = "PVC1"
  let header_len = String.length magic + 16

  let frame payload = magic ^ Digest.string payload ^ payload

  let unframe s =
    if
      String.length s >= header_len
      && String.sub s 0 (String.length magic) = magic
    then begin
      let payload =
        String.sub s header_len (String.length s - header_len)
      in
      if String.sub s (String.length magic) 16 = Digest.string payload then
        Some payload
      else None
    end
    else None

  (* key prefix sharding: concurrent writers from many processes spread
     their directory traffic (and their advisory locks) over 256-ish
     subdirectories instead of contending on one *)
  let shard_of key = if String.length key >= 2 then String.sub key 0 2 else "_s"

  let tmp_suffix = ".tmp."

  let is_tmp name =
    let rec find i =
      i + String.length tmp_suffix <= String.length name
      && (String.sub name i (String.length tmp_suffix) = tmp_suffix
          || find (i + 1))
    in
    find 0

  (* a tmp file older than this is a crashed writer's leftover *)
  let stale_tmp_age_s = 600.0

  let sweep_stale_tmps dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> ()
    | entries ->
        (* file mtimes are wall time, so the wall clock (not Clock's
           monotonic one) is the right comparison base here *)
        let now = Unix.gettimeofday () in
        Array.iter
          (fun sub ->
            let subdir = Filename.concat dir sub in
            if Sys.is_directory subdir then
              match Sys.readdir subdir with
              | exception Sys_error _ -> ()
              | files ->
                  Array.iter
                    (fun f ->
                      if is_tmp f then
                        let p = Filename.concat subdir f in
                        match Unix.stat p with
                        | exception Unix.Unix_error _ -> ()
                        | st ->
                            if now -. st.Unix.st_mtime > stale_tmp_age_s then
                              try Sys.remove p with Sys_error _ -> ())
                    files)
          entries

  let make ?(max_mem = 65_536) ?(log = Pv_obs.Log.null) dir =
    {
      dir;
      mem = Hashtbl.create 64;
      order = Queue.create ();
      max_mem = max 1 max_mem;
      lock = Mutex.create ();
      n_hits = 0;
      n_misses = 0;
      n_repairs = 0;
      n_evictions = 0;
      log;
    }

  let in_memory ?max_mem ?log () = make ?max_mem ?log None

  let on_disk ?max_mem ?log ~dir () =
    mkdir_p dir;
    sweep_stale_tmps dir;
    make ?max_mem ?log (Some dir)

  let path t key =
    match t.dir with
    | None -> None
    | Some dir ->
        Some (Filename.concat (Filename.concat dir (shard_of key)) (key ^ ".bin"))

  let read_file p =
    match open_in_bin p with
    | exception Sys_error _ -> None
    | ic ->
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            match really_input_string ic (in_channel_length ic) with
            | s -> Some s
            | exception _ -> None)

  (* Advisory-lock + atomic-rename publish protocol.  The tmp name is
     unique per (pid, domain), so concurrent writers never collide on it;
     the rename is atomic, so a reader only ever sees a complete file; the
     per-shard advisory lock serialises the publish step itself so two
     processes racing on one key settle on one winner's bytes rather than
     interleaving directory operations.  Readers take no lock: the frame
     digest already rejects any torn state. *)
  let with_shard_lock shard_dir f =
    let lock_path = Filename.concat shard_dir ".lock" in
    match Unix.openfile lock_path [ Unix.O_CREAT; Unix.O_RDWR ] 0o644 with
    | exception Unix.Unix_error _ -> f ()  (* degraded: lockless publish *)
    | fd ->
        Fun.protect
          ~finally:(fun () ->
            (try Unix.lockf fd Unix.F_ULOCK 0 with Unix.Unix_error _ -> ());
            try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            (try Unix.lockf fd Unix.F_LOCK 0 with Unix.Unix_error _ -> ());
            f ())

  let write_file p s =
    let shard_dir = Filename.dirname p in
    mkdir_p shard_dir;
    let tmp =
      Printf.sprintf "%s%s%d.%d" p tmp_suffix (Unix.getpid ())
        (Domain.self () :> int)
    in
    try
      let oc = open_out_bin tmp in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc s);
      with_shard_lock shard_dir (fun () -> Sys.rename tmp p)
    with Sys_error _ -> ( try Sys.remove tmp with Sys_error _ -> ())

  let mem_insert_locked t key s =
    if not (Hashtbl.mem t.mem key) then begin
      Queue.push key t.order;
      if Queue.length t.order > t.max_mem then begin
        let victim = Queue.pop t.order in
        if Hashtbl.mem t.mem victim then begin
          Hashtbl.remove t.mem victim;
          t.n_evictions <- t.n_evictions + 1
        end
      end
    end;
    Hashtbl.replace t.mem key s

  let repair t p =
    Mutex.lock t.lock;
    t.n_repairs <- t.n_repairs + 1;
    Mutex.unlock t.lock;
    Pv_obs.Log.warn t.log "cache_repair"
      ~fields:[ ("path", Pv_obs.Json.Str p) ];
    try Sys.remove p with Sys_error _ -> ()

  (* returns the *payload* (unframed); any framing violation on disk is a
     miss-and-repair *)
  let find t key =
    Mutex.lock t.lock;
    let cached = Hashtbl.find_opt t.mem key in
    Mutex.unlock t.lock;
    match cached with
    | Some s -> unframe s
    | None -> (
        match path t key with
        | None -> None
        | Some p -> (
            match read_file p with
            | None -> None
            | Some s -> (
                match unframe s with
                | Some payload ->
                    Mutex.lock t.lock;
                    mem_insert_locked t key s;
                    Mutex.unlock t.lock;
                    Some payload
                | None ->
                    (* truncated / garbage / pre-framing entry *)
                    repair t p;
                    None)))

  let store t key payload =
    let s = frame payload in
    Mutex.lock t.lock;
    mem_insert_locked t key s;
    Mutex.unlock t.lock;
    match path t key with None -> () | Some p -> write_file p s

  let bump t hit =
    Mutex.lock t.lock;
    if hit then t.n_hits <- t.n_hits + 1 else t.n_misses <- t.n_misses + 1;
    Mutex.unlock t.lock

  let memo t ~key compute =
    match
      Option.bind (find t key) (fun s ->
          (* a stale binary layout still decodes as a miss *)
          match Marshal.from_string s 0 with v -> Some v | exception _ -> None)
    with
    | Some v ->
        bump t true;
        (v, `Hit)
    | None ->
        let v = compute () in
        store t key (Marshal.to_string v []);
        bump t false;
        (v, `Miss)

  let hits t = t.n_hits
  let misses t = t.n_misses
  let repairs t = t.n_repairs
  let evictions t = t.n_evictions

  (* cache.{hits,misses,repairs,evictions} counters for the observability
     layer; call once per reporting interval with a fresh-ish registry, or
     after [reset_stats], since the totals are added as-is *)
  let record_metrics t m =
    let module M = Pv_obs.Metrics in
    M.add m "cache.hits" t.n_hits;
    M.add m "cache.misses" t.n_misses;
    M.add m "cache.repairs" t.n_repairs;
    M.add m "cache.evictions" t.n_evictions

  let reset_stats t =
    Mutex.lock t.lock;
    t.n_hits <- 0;
    t.n_misses <- 0;
    t.n_repairs <- 0;
    t.n_evictions <- 0;
    Mutex.unlock t.lock
end
