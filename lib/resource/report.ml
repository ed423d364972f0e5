(** Area/timing reports for a compiled circuit under a disambiguation
    scheme — the data behind Fig. 1, Table I, Table II and Fig. 7. *)

type t = {
  luts : int;
  ffs : int;
  muxes : int;
  cp_ns : float;
  datapath_luts : int;  (** computation + controller share (Fig. 1) *)
  queue_luts : int;  (** LSQ / PreVV share (Fig. 1) *)
  datapath_ffs : int;
  queue_ffs : int;
}

let dis_of_elab = function
  | Pv_netlist.Elaborate.D_plain_lsq _ -> Timing.M_plain_lsq
  | Pv_netlist.Elaborate.D_fast_lsq _ -> Timing.M_fast_lsq
  | Pv_netlist.Elaborate.D_prevv _ -> Timing.M_prevv
  | Pv_netlist.Elaborate.D_oracle -> Timing.M_oracle
  | Pv_netlist.Elaborate.D_serial -> Timing.M_serial

let depth_of_elab = function
  | Pv_netlist.Elaborate.D_plain_lsq d
  | Pv_netlist.Elaborate.D_fast_lsq d
  | Pv_netlist.Elaborate.D_prevv d ->
      d
  | Pv_netlist.Elaborate.D_oracle | Pv_netlist.Elaborate.D_serial -> 0

(* the block stream is folded straight into one tally per region, so the
   netlist list is never built; the split sums to the totals *)
let of_circuit (g : Pv_dataflow.Graph.t) (pm : Pv_memory.Portmap.t)
    (dis : Pv_netlist.Elaborate.disambiguation) : t =
  let module P = Pv_netlist.Primitive in
  let dp = P.tally () and queue = P.tally () in
  Pv_netlist.Elaborate.fold
    (fun () b ->
      P.tally_add
        (match b.P.region with P.Datapath -> dp | P.Queue -> queue)
        b.P.parts)
    () g pm dis;
  let dp = P.tallied dp and queue = P.tallied queue in
  {
    luts = dp.P.luts + queue.P.luts;
    ffs = dp.P.ffs + queue.P.ffs;
    muxes = dp.P.muxes + queue.P.muxes;
    cp_ns = Timing.clock_period g (dis_of_elab dis) ~depth:(depth_of_elab dis);
    datapath_luts = dp.P.luts;
    queue_luts = queue.P.luts;
    datapath_ffs = dp.P.ffs;
    queue_ffs = queue.P.ffs;
  }

(** Fraction of LUT+FF+mux resources spent in the disambiguation logic
    (the Fig. 1 metric). *)
let queue_share r =
  let q = r.queue_luts + r.queue_ffs in
  let d = r.datapath_luts + r.datapath_ffs in
  float_of_int q /. float_of_int (max 1 (q + d))

let pp ppf r =
  Format.fprintf ppf
    "LUT=%d (dp %d / queue %d)  FF=%d (dp %d / queue %d)  MUX=%d  CP=%.2fns"
    r.luts r.datapath_luts r.queue_luts r.ffs r.datapath_ffs r.queue_ffs
    r.muxes r.cp_ns
