open Pv_dataflow
open Pv_memory
module Trace = Pv_obs.Trace

type config = { mem_latency : int; turnaround : int }

let default = { mem_latency = 2; turnaround = 1 }

type t = {
  cfg : config;
  mem : int array;
  stats : Memif.stats;
  trace : Trace.t;
  n_ports : int;
  ambiguous : bool array;  (* port -> ambiguous *)
  gports : int array array;  (* group -> ambiguous ports, program order *)
  group_of : int array;  (* seq -> group, -1 = not yet announced *)
  done_ : Bytes.t;  (* seq * n_ports + port -> '\001' once completed/skipped *)
  resp : Ring.t array;  (* port -> (ready_at, token key, value) records *)
  mutable head_seq : int;
  mutable head_idx : int;
  mutable busy_until : int;  (* the single memory channel *)
  mutable now : int;
  mutable pending : int;
  mutable n_serialized : int;
}

let serialized t = t.n_serialized
let head t = (t.head_seq, t.head_idx)
let in_bounds t addr = addr >= 0 && addr < Array.length t.mem
let read_mem t addr = if in_bounds t addr then t.mem.(addr) else 0
let write_mem t addr value = if in_bounds t addr then t.mem.(addr) <- value

let group_at t seq =
  if seq < Array.length t.group_of then t.group_of.(seq) else -1

let mark_done t ~seq ~port =
  Bytes.set t.done_ ((seq * t.n_ports) + port) '\001'

(* Skip completed/skipped ops and exhausted instances; stops when the head
   instance's group is not yet announced. *)
let rec advance t =
  let g = group_at t t.head_seq in
  if g >= 0 then begin
    let ports = t.gports.(g) in
    if t.head_idx >= Array.length ports then begin
      t.head_seq <- t.head_seq + 1;
      t.head_idx <- 0;
      advance t
    end
    else if
      Bytes.get t.done_ ((t.head_seq * t.n_ports) + ports.(t.head_idx))
      <> '\000'
    then begin
      t.head_idx <- t.head_idx + 1;
      advance t
    end
  end

(* The port the program-order gate admits next, or -1 while the head
   instance's group is unannounced (or the instance is exhausted). *)
let expected t =
  let g = group_at t t.head_seq in
  if g < 0 then -1
  else
    let ports = t.gports.(g) in
    if t.head_idx < Array.length ports then ports.(t.head_idx) else -1

let occupy t =
  t.busy_until <- t.now + t.cfg.mem_latency + t.cfg.turnaround;
  if t.stats.max_occupancy < 1 then t.stats.max_occupancy <- 1

(* The single channel is free and — for ambiguous ports — this op is the
   program-order head. *)
let admit t ~ambiguous ~port ~seq =
  if ambiguous then begin
    advance t;
    if not (expected t = port && seq = t.head_seq) then begin
      t.stats.stall_order <- t.stats.stall_order + 1;
      false
    end
    else if t.now < t.busy_until then begin
      t.stats.stall_bw <- t.stats.stall_bw + 1;
      false
    end
    else begin
      mark_done t ~seq ~port;
      t.head_idx <- t.head_idx + 1;
      advance t;
      t.n_serialized <- t.n_serialized + 1;
      true
    end
  end
  else if t.now < t.busy_until then begin
    t.stats.stall_bw <- t.stats.stall_bw + 1;
    false
  end
  else true

let create_full ?(trace = Trace.null) cfg pm ~n_seq mem =
  let n_ports = Array.length pm.Portmap.ports in
  let t =
    {
      cfg;
      mem;
      stats = Memif.fresh_stats ();
      trace;
      n_ports;
      ambiguous = Array.init n_ports (Portmap.is_ambiguous pm);
      gports =
        Array.init pm.Portmap.n_groups (fun g ->
            Array.of_list (Portmap.group_ports pm g));
      group_of = Array.make n_seq (-1);
      done_ = Bytes.make (n_seq * n_ports) '\000';
      resp = Array.init n_ports (fun _ -> Ring.create ~stride:3 4);
      head_seq = 0;
      head_idx = 0;
      busy_until = 0;
      now = 0;
      pending = 0;
      n_serialized = 0;
    }
  in
  let mif =
    {
      Memif.begin_instance =
        (fun ~seq ~group ->
          t.group_of.(seq) <- group;
          true);
      alloc_group =
        (fun ~key ~group ->
          t.group_of.(Types.Token.seq key) <- group;
          true);
      load_req =
        (fun ~port ~key ~addr ->
          let seq = Types.Token.seq key in
          if admit t ~ambiguous:t.ambiguous.(port) ~port ~seq then begin
            t.stats.loads <- t.stats.loads + 1;
            Ring.push3 t.resp.(port) (t.now + cfg.mem_latency) key
              (read_mem t addr);
            t.pending <- t.pending + 1;
            occupy t;
            true
          end
          else false);
      load_poll =
        (fun ~port out ->
          let q = t.resp.(port) in
          (not (Ring.is_empty q))
          && Ring.get q 0 0 <= t.now
          && begin
               out.Memif.ls_key <- Ring.get q 0 1;
               out.Memif.ls_value <- Ring.get q 0 2;
               Ring.pop q;
               t.pending <- t.pending - 1;
               true
             end);
      store_req =
        (fun ~port ~key ~addr ~value ->
          if admit t ~ambiguous:t.ambiguous.(port) ~port ~seq:(Types.Token.seq key)
          then begin
            t.stats.stores <- t.stats.stores + 1;
            write_mem t addr value;
            occupy t;
            true
          end
          else false);
      store_addr = (fun ~port:_ ~key:_ ~addr:_ -> ());
      op_skip =
        (fun ~port ~key ->
          t.stats.fake_tokens <- t.stats.fake_tokens + 1;
          if t.ambiguous.(port) then begin
            mark_done t ~seq:(Types.Token.seq key) ~port;
            advance t
          end;
          true);
      poll_squash = (fun () -> None);
      clock = (fun () -> t.now <- t.now + 1);
      quiesced = (fun () -> t.pending = 0);
      stats = (fun () -> t.stats);
      inject = (fun _ -> false);
      describe =
        (fun () ->
          Printf.sprintf
            "serial: now=%d head=(seq=%d,idx=%d) expected_port=%s busy_until=%d \
             pending=%d serialized=%d"
            t.now t.head_seq t.head_idx
            (match expected t with -1 -> "?" | p -> string_of_int p)
            t.busy_until t.pending t.n_serialized);
    }
  in
  (t, mif)
