(* The grid workloads' cells, built from the workload seed.  Why each
   workload exists is recorded in README.md. *)

open Pv_core
module Ast = Pv_kernels.Ast
module Defs = Pv_kernels.Defs
module Gen = Pv_kernels.Generate
module W = Pv_kernels.Workload

(* Fisher-Yates over the repository's own LCG, so the order depends on the
   seed alone *)
let shuffle seed a =
  let a = Array.copy a in
  let r = W.rng seed in
  for i = Array.length a - 1 downto 1 do
    let j = W.int r (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let sim_cell ?init ~label kernel dis =
  let (module M : Scheme.S) = Scheme.of_disambiguation dis in
  let label = label ^ "/" ^ M.name in
  {
    Cell.label;
    source = Cell.Kernel kernel;
    init;
    sim = Some (M.name, dis);
    sim_cfg = Pv_dataflow.Sim.default_config;
    reports = [ M.elaboration ];
    ref_cycles = Reference.cycles label;
  }

(* ---- paper_grid: Tables I/II, every registered scheme ---- *)

let paper_cells seed =
  let cells =
    List.concat_map
      (fun k ->
        List.map
          (fun (module M : Scheme.S) -> sim_cell ~label:k.Ast.name k M.config)
          (Scheme.all ()))
      (Defs.paper_benchmarks ())
  in
  shuffle seed (Array.of_list cells)

(* ---- squash_storm: aliasing kernels where premature execution fails ---- *)

let storm_schemes = [ Scheme.prevv 16; Scheme.prevv 64; Scheme.fast_lsq ]

(* enlarged from the defaults (matvec 40, fir_smooth 96, triangular_tight
   24, histogram 64, spmv_like 96, running_max 160, stencil1d 64,
   cond_update 64) so that squash and replay dominate, and so that every
   fixed cell outlasts the small generated ones: the latency percentiles
   then fall on fixed cells, whatever kernels the seed generates *)
let storm_kernels () =
  [
    Defs.matvec ~n:48 ();
    Defs.fir_smooth ~n:600 ();
    Defs.triangular_tight ~n:40 ();
    Defs.histogram ~n:1024 ();
    Defs.spmv_like ~n:2048 ();
    Defs.running_max ~n:4096 ();
    Defs.stencil1d ~n:256 ();
    Defs.cond_update ~n:2048 ();
  ]

(* the differential-fuzz shape: small nests with indirect and
   conditional stores *)
let storm_spec = Gen.default_spec

let storm_generated = 6

(* a store inside a conditional, or through an index loaded from memory *)
let rec has_indirect = function
  | Ast.Idx _ -> true
  | Ast.Int _ | Ast.Var _ -> false
  | Ast.Bin (_, a, b) -> has_indirect a || has_indirect b
  | Ast.Un (_, a) -> has_indirect a

let rec irregular = function
  | Ast.Store (_, ix, _) -> has_indirect ix
  | Ast.If _ -> true
  | Ast.For { body; _ } -> List.exists irregular body

(* the first [n] generated kernels with an irregular store, drawn from a
   seed-derived sequence *)
let generated ~spec ~n ~pred seed =
  let rec go acc i =
    if List.length acc = n then List.rev acc
    else
      let s = (seed * 7919) + i in
      let k = Gen.kernel ~spec s in
      let k = { k with Ast.name = Printf.sprintf "gen%d" s } in
      go (if pred k then (k, s) :: acc else acc) (i + 1)
  in
  go [] 0

(* A known defect, kept in view: this generated kernel (three stores to
   one array per iteration, one of them indirect) deadlocks under PreVV16
   while PreVV32/64 and the LSQs finish it.  Each pass counts it as one
   failed op until the program rejects or runs it. *)
let defect_cell () =
  let spec = { Gen.default_spec with max_stmts = 3; array_len = 48; trip = 24 } in
  let k = Gen.kernel ~spec 31686 in
  let k = { k with Ast.name = "defect_gen31686" } in
  sim_cell ~init:(Gen.init_for ~spec k 31686) ~label:k.Ast.name k (Scheme.prevv 16)

let storm_cells seed =
  let fixed =
    defect_cell ()
    :: List.concat_map
         (fun k -> List.map (sim_cell ~label:k.Ast.name k) storm_schemes)
         (storm_kernels ())
  in
  let gen =
    List.concat_map
      (fun (k, s) ->
        let init = Gen.init_for ~spec:storm_spec k s in
        List.map (sim_cell ~init ~label:k.Ast.name k) storm_schemes)
      (generated ~spec:storm_spec ~n:storm_generated
         ~pred:(fun k -> List.exists irregular k.Ast.body)
         seed)
  in
  shuffle seed (Array.of_list (fixed @ gen))

(* ---- area_sweep: the Table I / Fig. 7 flow, no simulation ---- *)

let area_configs () =
  List.map Scheme.elaboration_of
    ([ Scheme.plain_lsq; Scheme.fast_lsq ]
    @ List.map (fun d -> Scheme.prevv d) [ 1; 2; 4; 8; 16; 32; 64 ])

let area_spec =
  {
    Gen.max_depth = 3;
    max_stmts = 3;
    max_arrays = 4;
    array_len = 64;
    trip = 8;
    allow_if = true;
    allow_indirect = true;
    allow_div = true;
  }

let area_generated = 400

let area_cell ~reports k =
  {
    Cell.label = k.Ast.name;
    source =
      Cell.Text { name = k.Ast.name; text = Format.asprintf "%a" Ast.pp_kernel k };
    init = None;
    sim = None;
    sim_cfg = Pv_dataflow.Sim.default_config;
    reports;
    ref_cycles = None;
  }

let area_cells seed =
  let reports = area_configs () in
  let gen =
    List.map fst
      (generated ~spec:area_spec ~n:area_generated ~pred:(fun _ -> true) seed)
  in
  shuffle seed (Array.of_list (List.map (area_cell ~reports) (Defs.all () @ gen)))

(* the fixed warm-up cell of each grid workload (seed-independent, so
   set-up time compares across seeds) *)
let warmup = function
  | "paper_grid" -> sim_cell ~label:"gaussian" (Defs.gaussian ()) (Scheme.prevv 16)
  | "squash_storm" -> sim_cell ~label:"matvec" (Defs.matvec ~n:48 ()) (Scheme.prevv 16)
  | _ -> area_cell ~reports:(area_configs ()) (Defs.gaussian ())

let cells workload seed =
  match workload with
  | "paper_grid" -> paper_cells seed
  | "squash_storm" -> storm_cells seed
  | "area_sweep" -> area_cells seed
  | w -> invalid_arg ("not a grid workload: " ^ w)
