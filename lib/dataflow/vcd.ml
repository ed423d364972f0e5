(** Value-change-dump (VCD) recording of a simulation, viewable in GTKWave
    or any waveform viewer — the ModelSim-style debugging aid for circuits
    built with this library.

    Every channel contributes two signals: its data value (32-bit vector)
    and a [*_v] valid bit; each node contributes a fire strobe.  Identifier
    codes use the printable-ASCII scheme of the VCD standard. *)

let id_code n =
  (* base-94 over '!'..'~' *)
  let rec go n acc =
    let acc = String.make 1 (Char.chr (33 + (n mod 94))) ^ acc in
    if n < 94 then acc else go ((n / 94) - 1) acc
  in
  go n ""

let sanitize s =
  String.map
    (fun c ->
      if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'
      then c
      else '_')
    s

type t = {
  oc : out_channel;
  sim : Sim.t;
  n_chans : int;
  n_nodes : int;
  (* last dumped states, to emit changes only *)
  last_value : int option array;
  last_fire : int array;
  mutable last_epoch : int;  (* -1 before the first sample *)
  mutable squash_high : bool;  (* squash strobe currently at 1 *)
}

let chan_label g cid =
  let c = Graph.chan g cid in
  let src = Graph.node g c.Graph.src.Graph.node in
  let dst = Graph.node g c.Graph.dst.Graph.node in
  Printf.sprintf "c%d_%s%d_to_%s%d" cid (sanitize src.Graph.label)
    src.Graph.nid (sanitize dst.Graph.label) dst.Graph.nid

(* value id = 2*cid, valid id = 2*cid+1, node strobes after channels,
   then the squash-epoch markers *)
let value_id cid = id_code (2 * cid)
let valid_id cid = id_code ((2 * cid) + 1)
let fire_id ~n_chans nid = id_code ((2 * n_chans) + nid)
let epoch_id ~n_chans ~n_nodes = id_code ((2 * n_chans) + n_nodes)
let squash_id ~n_chans ~n_nodes = id_code ((2 * n_chans) + n_nodes + 1)

let create oc (sim : Sim.t) : t =
  let g = Sim.graph sim in
  let n_chans = Graph.n_chans g in
  output_string oc "$date generated by pv_dataflow $end\n";
  output_string oc "$timescale 1ns $end\n";
  output_string oc "$scope module circuit $end\n";
  Graph.iter_chans
    (fun c ->
      let cid = c.Graph.cid in
      Printf.fprintf oc "$var wire 32 %s %s $end\n" (value_id cid)
        (chan_label g cid);
      Printf.fprintf oc "$var wire 1 %s %s_v $end\n" (valid_id cid)
        (chan_label g cid))
    g;
  Graph.iter_nodes
    (fun n ->
      Printf.fprintf oc "$var wire 1 %s fire_%s%d $end\n"
        (fire_id ~n_chans n.Graph.nid)
        (sanitize n.Graph.label) n.Graph.nid)
    g;
  let n_nodes = Graph.n_nodes g in
  (* squash/epoch markers: [epoch] counts squashes so far, [squash] strobes
     for one cycle at each squash — the same events the Chrome trace marks,
     so GTKWave and Perfetto timelines line up *)
  Printf.fprintf oc "$var wire 32 %s epoch $end\n" (epoch_id ~n_chans ~n_nodes);
  Printf.fprintf oc "$var wire 1 %s squash $end\n" (squash_id ~n_chans ~n_nodes);
  output_string oc "$upscope $end\n$enddefinitions $end\n";
  {
    oc;
    sim;
    n_chans;
    n_nodes;
    last_value = Array.make n_chans None;
    last_fire = Array.make n_nodes 0;
    last_epoch = -1;
    squash_high = false;
  }

let bits32 v =
  let buf = Bytes.create 32 in
  for k = 0 to 31 do
    Bytes.set buf (31 - k) (if (v lsr k) land 1 = 1 then '1' else '0')
  done;
  Bytes.to_string buf

(* dump the state differences for the current cycle *)
let sample t =
  Printf.fprintf t.oc "#%d\n" (Sim.cycle t.sim);
  for cid = 0 to t.n_chans - 1 do
    let v = Option.map Types.Token.value (Sim.chan_token t.sim cid) in
    if v <> t.last_value.(cid) then begin
      (match v with
      | Some x -> Printf.fprintf t.oc "b%s %s\n" (bits32 x) (value_id cid)
      | None -> Printf.fprintf t.oc "bx %s\n" (value_id cid));
      Printf.fprintf t.oc "%d%s\n"
        (if v = None then 0 else 1)
        (valid_id cid);
      t.last_value.(cid) <- v
    end
  done;
  Array.iteri
    (fun nid fires ->
      let fired_now = fires > t.last_fire.(nid) in
      Printf.fprintf t.oc "%d%s\n"
        (if fired_now then 1 else 0)
        (fire_id ~n_chans:t.n_chans nid);
      t.last_fire.(nid) <- fires)
    (Sim.fires t.sim);
  let epoch = Sim.epoch t.sim in
  if epoch <> t.last_epoch then begin
    Printf.fprintf t.oc "b%s %s\n" (bits32 epoch)
      (epoch_id ~n_chans:t.n_chans ~n_nodes:t.n_nodes);
    (* strobe only on a genuine squash, not on the initial epoch-0 dump *)
    if t.last_epoch >= 0 then begin
      Printf.fprintf t.oc "1%s\n" (squash_id ~n_chans:t.n_chans ~n_nodes:t.n_nodes);
      t.squash_high <- true
    end
    else
      Printf.fprintf t.oc "0%s\n" (squash_id ~n_chans:t.n_chans ~n_nodes:t.n_nodes);
    t.last_epoch <- epoch
  end
  else if t.squash_high then begin
    Printf.fprintf t.oc "0%s\n" (squash_id ~n_chans:t.n_chans ~n_nodes:t.n_nodes);
    t.squash_high <- false
  end

(** Run a simulation to completion while writing a VCD to [path]; returns
    the outcome.  [cfg.max_cycles] bounds the dump size. *)
let record ?(cfg = Sim.default_config) ~path (g : Graph.t) (mem : Memif.t) :
    Sim.outcome =
  Out_channel.with_open_text path (fun oc ->
      let sim = Sim.create ~cfg g mem in
      let t = create oc sim in
      fst (Sim.drive ~before_step:(fun () -> sample t) sim))
