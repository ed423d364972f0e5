(** Contract between the circuit simulator and a memory-disambiguation
    backend (plain memory, LSQ variants, or PreVV).

    Every static load/store site of a kernel is a numbered {e port}.  The
    simulator calls the backend once per firing attempt; a [false]/[None]
    answer means "not accepted this cycle" and exerts backpressure on the
    datapath, which is how allocation stalls and full-queue stalls surface
    as extra cycles.  [clock] advances backend-internal pipelines once per
    simulated cycle. *)

type stats = {
  mutable loads : int;  (** load requests accepted *)
  mutable stores : int;  (** store requests accepted *)
  mutable squashes : int;  (** pipeline squashes triggered *)
  mutable replayed_ops : int;  (** memory ops re-executed after squashes *)
  mutable stall_full : int;  (** port-cycles refused for a full queue *)
  mutable stall_alloc : int;  (** generator-cycles refused at allocation *)
  mutable stall_order : int;  (** port-cycles a load waited for ordering *)
  mutable stall_bw : int;  (** port-cycles refused for memory bandwidth *)
  mutable forwarded : int;  (** loads served by store-to-load forwarding *)
  mutable fake_tokens : int;  (** Skip notifications accepted *)
  mutable max_occupancy : int;  (** high-water mark of the central queue *)
  mutable faults : int;  (** injected backend faults accepted *)
  mutable degraded : int;  (** livelock-guard engagements (squash storms) *)
}

let fresh_stats () =
  {
    loads = 0;
    stores = 0;
    squashes = 0;
    replayed_ops = 0;
    stall_full = 0;
    stall_alloc = 0;
    stall_order = 0;
    stall_bw = 0;
    forwarded = 0;
    fake_tokens = 0;
    max_occupancy = 0;
    faults = 0;
    degraded = 0;
  }

let pp_stats ppf s =
  Format.fprintf ppf
    "loads=%d stores=%d squashes=%d replayed=%d stall_full=%d stall_alloc=%d \
     stall_order=%d stall_bw=%d forwarded=%d fake=%d max_occ=%d"
    s.loads s.stores s.squashes s.replayed_ops s.stall_full s.stall_alloc
    s.stall_order s.stall_bw s.forwarded s.fake_tokens s.max_occupancy;
  if s.faults > 0 then Format.fprintf ppf " faults=%d" s.faults;
  if s.degraded > 0 then Format.fprintf ppf " DEGRADED(x%d)" s.degraded

(** Out-parameter for {!t.load_poll}: the backend fills the slot instead
    of allocating a [(key, value)] pair per response, so polling a load
    port every cycle costs no minor-heap traffic.  The simulator owns one
    slot and reuses it across all ports.  [ls_key] is the packed
    {!Types.Token.t} of the request (the simulator re-stamps the epoch
    field on delivery). *)
type load_slot = { mutable ls_key : Types.Token.t; mutable ls_value : int }

let fresh_slot () = { ls_key = Types.Token.none; ls_value = 0 }

type t = {
  begin_instance : seq:int -> group:int -> bool;
      (** called by the generator before emitting body instance [seq] (no
          token exists yet, so this one takes the raw counter); refusing
          stalls the whole front of the pipeline (allocation backpressure) *)
  alloc_group : key:Types.Token.t -> group:int -> bool;
      (** late allocation for a conditional group, from a {!Types.Galloc}
          node once the branch outcome is known *)
  load_req : port:int -> key:Types.Token.t -> addr:int -> bool;
      (** a load port presents its address; accepted requests complete
          later and are retrieved with [load_poll] *)
  load_poll : port:int -> load_slot -> bool;
      (** completed load for this port: [true] fills the slot with
          [(key, value)] and consumes the response *)
  store_req : port:int -> key:Types.Token.t -> addr:int -> value:int -> bool;
  store_addr : port:int -> key:Types.Token.t -> addr:int -> unit;
      (** early address announcement: the store port has computed its
          address but not yet its data (lets an LSQ resolve ordering) *)
  op_skip : port:int -> key:Types.Token.t -> bool;
      (** the op of [port] does not occur for this instance (fake token) *)
  poll_squash : unit -> int option;
      (** pending pipeline squash: [Some seq_err] purges all in-flight
          tokens with [seq >= seq_err] and rewinds the generator *)
  clock : unit -> unit;
  quiesced : unit -> bool;  (** all accepted operations fully committed *)
  stats : unit -> stats;
  inject : Fault.backend_action -> bool;
      (** apply a backend-level fault; [false] = not applicable (no such
          queue entry, squash point already committed, or the backend has
          no speculative state at all) *)
  describe : unit -> string;
      (** human-readable snapshot of internal state for post-mortems *)
}

(* Cycles from an accepted memory access to its response, the same for
   every scheme: the schemes compare disambiguation over one memory
   fabric. *)
let mem_latency = 2

(** Allocating convenience over the slot-filling [load_poll], for tests
    and debug probes that want an option-returning shape. *)
let poll (t : t) ~port : (Types.Token.t * int) option =
  let slot = fresh_slot () in
  if t.load_poll ~port slot then Some (slot.ls_key, slot.ls_value) else None

(** A trivially correct backend over a plain memory: loads and stores are
    served in arrival order with a fixed latency and no disambiguation.
    Only legal for kernels without ambiguous pairs; used in tests and as
    the building block for real backends' committed storage.

    State is three flat per-port arrays (ready cycle / seq / value, with
    ready = -1 meaning idle), so a steady-state cycle allocates nothing —
    which also makes this the reference backend the zero-allocation perf
    assertions isolate the simulator core against. *)
let direct ~latency (mem : int array) : t =
  let stats = fresh_stats () in
  (* per-port in-flight load: cycle the response becomes ready, packed
     token key, and the value read at request time (correct here because
     stores commit immediately); arrays grow on first sight of a port *)
  let ready = ref (Array.make 8 (-1)) in
  let keys = ref (Array.make 8 0) in
  let vals = ref (Array.make 8 0) in
  let now = ref 0 in
  let inflight = ref 0 in
  let ensure port =
    let n = Array.length !ready in
    if port >= n then begin
      let n' = max (port + 1) (n * 2) in
      let grow a fill =
        let b = Array.make n' fill in
        Array.blit !a 0 b 0 n;
        a := b
      in
      grow ready (-1);
      grow keys 0;
      grow vals 0
    end
  in
  {
    begin_instance = (fun ~seq:_ ~group:_ -> true);
    alloc_group = (fun ~key:_ ~group:_ -> true);
    load_req =
      (fun ~port ~key ~addr ->
        ensure port;
        if !ready.(port) >= 0 then false
        else begin
          stats.loads <- stats.loads + 1;
          !ready.(port) <- !now + latency;
          !keys.(port) <- key;
          !vals.(port) <- mem.(addr);
          inflight := !inflight + 1;
          true
        end);
    load_poll =
      (fun ~port slot ->
        port < Array.length !ready
        && !ready.(port) >= 0
        && !ready.(port) <= !now
        && begin
             slot.ls_key <- !keys.(port);
             slot.ls_value <- !vals.(port);
             !ready.(port) <- -1;
             inflight := !inflight - 1;
             true
           end);
    store_req =
      (fun ~port:_ ~key:_ ~addr ~value ->
        stats.stores <- stats.stores + 1;
        mem.(addr) <- value;
        true);
    store_addr = (fun ~port:_ ~key:_ ~addr:_ -> ());
    op_skip = (fun ~port:_ ~key:_ -> true);
    poll_squash = (fun () -> None);
    clock = (fun () -> incr now);
    quiesced = (fun () -> !inflight = 0);
    stats = (fun () -> stats);
    inject = (fun _ -> false);  (* nothing speculative to disturb *)
    describe = (fun () -> Printf.sprintf "direct: %d in-flight load(s)" !inflight);
  }
