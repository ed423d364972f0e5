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

(* one table-driven walk sums the datapath and finds its slow units; the
   memory-subsystem macros are split by region, the replay copy sized from
   the walk's datapath LUTs.  The split sums to the totals, and the
   achieved period is the worse of the two critical paths. *)
let of_circuit (g : Pv_dataflow.Graph.t) (pm : Pv_memory.Portmap.t)
    (dis : Pv_netlist.Elaborate.disambiguation) : t =
  let module E = Pv_netlist.Elaborate in
  let module P = Pv_netlist.Primitive in
  let s = E.summarize g in
  let mc, queue = E.breakdown (E.subsystem g pm dis ~dp_luts:s.E.dp.P.luts) in
  let dp = P.tally () in
  P.tally_scaled dp 1 s.E.dp;
  P.tally_scaled dp 1 mc;
  let dp = P.tallied dp in
  let dp_cp = Timing.datapath_cp ~nodes:s.E.nodes ~div:s.E.div ~mul:s.E.mul in
  {
    luts = dp.P.luts + queue.P.luts;
    ffs = dp.P.ffs + queue.P.ffs;
    muxes = dp.P.muxes + queue.P.muxes;
    cp_ns = Float.max dp_cp (Timing.mem_cp dis);
    datapath_luts = dp.P.luts;
    queue_luts = queue.P.luts;
    datapath_ffs = dp.P.ffs;
    queue_ffs = queue.P.ffs;
  }

(** Fraction of LUT+FF resources spent in the disambiguation logic
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
