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

(* one table-driven walk sums the datapath and finds its slow units; the
   memory-subsystem macros are then tallied per region, the replay copy
   sized from the walk's datapath LUTs.  The split sums to the totals, and
   the achieved period is the worse of the two critical paths. *)
let of_circuit (g : Pv_dataflow.Graph.t) (pm : Pv_memory.Portmap.t)
    (dis : Pv_netlist.Elaborate.disambiguation) : t =
  let module E = Pv_netlist.Elaborate in
  let module P = Pv_netlist.Primitive in
  let s = E.summarize g in
  let dp = P.tally () and queue = P.tally () in
  P.tally_scaled dp 1 s.E.dp;
  List.iter
    (fun b ->
      P.tally_add
        (match b.P.region with P.Datapath -> dp | P.Queue -> queue)
        b.P.parts)
    (E.subsystem g pm dis ~dp_luts:s.E.dp.P.luts);
  let dp = P.tallied dp and queue = P.tallied queue in
  let dp_cp = Timing.datapath_cp ~nodes:s.E.nodes ~div:s.E.div ~mul:s.E.mul in
  {
    luts = dp.P.luts + queue.P.luts;
    ffs = dp.P.ffs + queue.P.ffs;
    muxes = dp.P.muxes + queue.P.muxes;
    cp_ns =
      Float.max dp_cp (Timing.mem_cp (dis_of_elab dis) ~depth:(depth_of_elab dis));
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
