open Pv_dataflow
open Pv_memory
module Trace = Pv_obs.Trace

type config = { mem_latency : int; forward_latency : int }

let default = { mem_latency = 2; forward_latency = 1 }

(* Per-port response rings hold (token key, ready_at, value, awaited store
   slot) records in request order.  A load waiting for its true
   conflicting store holds a record with ready_at = -1 and its correct
   value already in place; the store's arrival (or a degrade) fills in the
   ready time, so per-port delivery order is preserved. *)
let f_key = 0
and f_ready = 1
and f_value = 2
and f_store = 3

type t = {
  cfg : config;
  mem : int array;
  stats : Memif.stats;
  prescience : Prescience.t;
  trace : Trace.t;
  ambiguous : bool array;  (* port -> ambiguous *)
  is_store : bool array;  (* port -> store port *)
  (* visible memory = youngest arrived store per address; the owner is the
     prescience slot (program-order key) of the store backing mem, -1 =
     initial contents *)
  vis_owner : int array;
  arrived : Bytes.t;  (* slot -> '\001' once its store arrived *)
  resp : Ring.t array;
  mutable n_waiting : int;
  mutable broken : bool;
  mutable now : int;
  mutable outstanding : int;
  mutable n_waits : int;
  mutable n_coincidences : int;
  mutable n_forwards : int;
}

let waits t = t.n_waits
let coincidences t = t.n_coincidences
let forwards t = t.n_forwards
let degraded t = t.broken
let in_bounds t addr = addr >= 0 && addr < Array.length t.mem
let read_vis t addr = if in_bounds t addr then t.mem.(addr) else 0

let write_vis t ~slot ~addr ~value =
  if in_bounds t addr && slot > t.vis_owner.(addr) then begin
    t.mem.(addr) <- value;
    t.vis_owner.(addr) <- slot
  end

let respond t ~port ~key ~ready_at ~value ~store =
  Ring.push4 t.resp.(port) key ready_at value store;
  t.outstanding <- t.outstanding + 1;
  if t.outstanding > t.stats.max_occupancy then
    t.stats.max_occupancy <- t.outstanding

let serve t ~port ~key ~latency ~value =
  respond t ~port ~key ~ready_at:(t.now + latency) ~value ~store:(-1)

(* Release the loads waiting for the store of [slot] at forward latency. *)
let release t slot =
  for port = 0 to Array.length t.resp - 1 do
    let q = t.resp.(port) in
    for i = 0 to Ring.length q - 1 do
      if Ring.get q i f_ready < 0 && Ring.get q i f_store = slot then begin
        Ring.set q i f_ready (t.now + t.cfg.forward_latency);
        t.n_waiting <- t.n_waiting - 1
      end
    done
  done

(* Serve every waiting load from visible memory; the waiting load's
   address is the walked one, since a mismatch would have degraded. *)
let degrade t =
  if not t.broken then begin
    t.broken <- true;
    t.stats.degraded <- t.stats.degraded + 1;
    Trace.instant t.trace ~tid:Trace.tid_backend ~ts:t.now "oracle_degraded";
    Array.iteri
      (fun port q ->
        for i = 0 to Ring.length q - 1 do
          if Ring.get q i f_ready < 0 then begin
            let seq = Types.Token.seq (Ring.get q i f_key) in
            let s = Prescience.slot t.prescience ~seq ~port in
            Ring.set q i f_ready (t.now + t.cfg.mem_latency);
            Ring.set q i f_value (read_vis t (Prescience.addr t.prescience s))
          end
        done)
      t.resp;
    t.n_waiting <- 0
  end

let serve_ambiguous_load t ~port ~key ~addr =
  let presc = t.prescience in
  let seq = Types.Token.seq key in
  let slot = Prescience.slot presc ~seq ~port in
  if
    (not t.broken)
    && not (Prescience.recorded presc slot && Prescience.addr presc slot = addr)
  then
    (* address diverged from the program-order walk (fault-corrupted) *)
    degrade t;
  if t.broken then
    serve t ~port ~key ~latency:t.cfg.mem_latency ~value:(read_vis t addr)
  else
    let v_correct = Prescience.value presc slot in
    let st = Prescience.youngest_older_store presc ~addr ~slot in
    if st < 0 then
      serve t ~port ~key ~latency:t.cfg.mem_latency ~value:v_correct
    else if Bytes.unsafe_get t.arrived st <> '\000' then begin
      t.n_forwards <- t.n_forwards + 1;
      t.stats.forwarded <- t.stats.forwarded + 1;
      serve t ~port ~key ~latency:t.cfg.forward_latency ~value:v_correct
    end
    else if read_vis t addr = v_correct then begin
      (* value coincidence: PreVV would speculate and survive validation
         (Eq. 5), so the lower bound must not wait *)
      t.n_coincidences <- t.n_coincidences + 1;
      serve t ~port ~key ~latency:t.cfg.mem_latency ~value:v_correct
    end
    else begin
      t.n_waits <- t.n_waits + 1;
      t.stats.stall_order <- t.stats.stall_order + 1;
      if Trace.enabled t.trace then
        Trace.instant t.trace ~tid:Trace.tid_backend ~ts:t.now "oracle_wait"
          ~args:
            [
              ("port", port);
              ("seq", seq);
              ("store_seq", st / Prescience.n_ports presc);
            ];
      respond t ~port ~key ~ready_at:(-1) ~value:v_correct ~store:st;
      t.n_waiting <- t.n_waiting + 1
    end

let create_full ?(trace = Trace.null) cfg pm mem ~prescience =
  let n_ports = Array.length pm.Portmap.ports in
  let n_slots = Prescience.n_seq prescience * n_ports in
  let t =
    {
      cfg;
      mem;
      stats = Memif.fresh_stats ();
      prescience;
      trace;
      ambiguous = Array.init n_ports (Portmap.is_ambiguous pm);
      is_store =
        Array.map (fun p -> p.Portmap.kind = Portmap.OStore) pm.Portmap.ports;
      vis_owner = Array.make (Array.length mem) (-1);
      arrived = Bytes.make n_slots '\000';
      resp = Array.init n_ports (fun _ -> Ring.create ~stride:4 4);
      n_waiting = 0;
      broken = false;
      now = 0;
      outstanding = 0;
      n_waits = 0;
      n_coincidences = 0;
      n_forwards = 0;
    }
  in
  let mif =
    {
      Memif.begin_instance = (fun ~seq:_ ~group:_ -> true);
      alloc_group = (fun ~key:_ ~group:_ -> true);
      load_req =
        (fun ~port ~key ~addr ->
          t.stats.loads <- t.stats.loads + 1;
          if t.ambiguous.(port) then serve_ambiguous_load t ~port ~key ~addr
          else serve t ~port ~key ~latency:cfg.mem_latency ~value:(read_vis t addr);
          true);
      load_poll =
        (fun ~port out ->
          let q = t.resp.(port) in
          (not (Ring.is_empty q))
          &&
          let ready_at = Ring.get q 0 f_ready in
          ready_at >= 0 && ready_at <= t.now
          && begin
               out.Memif.ls_key <- Ring.get q 0 f_key;
               out.Memif.ls_value <- Ring.get q 0 f_value;
               Ring.pop q;
               t.outstanding <- t.outstanding - 1;
               true
             end);
      store_req =
        (fun ~port ~key ~addr ~value ->
          let presc = t.prescience in
          let slot = Prescience.slot presc ~seq:(Types.Token.seq key) ~port in
          t.stats.stores <- t.stats.stores + 1;
          if
            t.ambiguous.(port) && (not t.broken)
            && not
                 (Prescience.recorded presc slot
                 && Prescience.addr presc slot = addr
                 && Prescience.value presc slot = value)
          then degrade t;
          Bytes.set t.arrived slot '\001';
          write_vis t ~slot ~addr ~value;
          if t.n_waiting > 0 then release t slot;
          true);
      store_addr = (fun ~port:_ ~key:_ ~addr:_ -> ());
      op_skip =
        (fun ~port ~key ->
          t.stats.fake_tokens <- t.stats.fake_tokens + 1;
          (* a store the walk executed will never arrive: anyone waiting on
             it would hang, so fall back *)
          if
            t.ambiguous.(port) && t.is_store.(port) && (not t.broken)
            && Prescience.recorded t.prescience
                 (Prescience.slot t.prescience ~seq:(Types.Token.seq key) ~port)
          then degrade t;
          true);
      poll_squash = (fun () -> None);
      clock = (fun () -> t.now <- t.now + 1);
      quiesced = (fun () -> t.outstanding = 0 && t.n_waiting = 0);
      stats = (fun () -> t.stats);
      inject = (fun _ -> false);
      describe =
        (fun () ->
          let n = Prescience.n_ports t.prescience in
          let waiting = ref [] in
          Array.iter
            (fun q ->
              Ring.iter
                (fun i ->
                  if Ring.get q i f_ready < 0 then
                    let st = Ring.get q i f_store in
                    waiting :=
                      Printf.sprintf "store(port=%d,seq=%d)" (st mod n) (st / n)
                      :: !waiting)
                q)
            t.resp;
          let waiting = List.rev !waiting in
          Printf.sprintf
            "oracle: now=%d outstanding=%d waiting=[%s] degraded=%b waits=%d \
             coincidences=%d forwards=%d"
            t.now t.outstanding
            (String.concat "; " waiting)
            t.broken t.n_waits t.n_coincidences t.n_forwards);
    }
  in
  (t, mif)
