(* Tests for the structural netlist and its aggregation. *)

open Pv_netlist
module P = Primitive

let part leaf prim count = { P.leaf; prim; count }

let test_totals_math () =
  let nl =
    [
      {
        P.scope = P.Macro ("a", None);
        region = P.Datapath;
        parts =
          [
            part "" (P.Lut 4) 10;
            part "b" P.Ff 7;
            part "c" (P.Lutram 8) 2 (* 2 banks x 8 bits *);
          ];
      };
      {
        P.scope = P.Macro ("d", Some 0);
        region = P.Queue;
        parts = [ part "" P.Muxf 3; part "e" P.Dsp 1 ];
      };
    ]
  in
  let t = P.totals nl in
  Alcotest.(check int) "luts incl. lutram" 26 t.P.luts;
  Alcotest.(check int) "ffs" 7 t.P.ffs;
  Alcotest.(check int) "muxes" 3 t.P.muxes;
  Alcotest.(check int) "dsps" 1 t.P.dsps

let test_region_split () =
  let nl =
    [
      { P.scope = P.Macro ("lsq", Some 0); region = P.Queue;
        parts = [ part "cam" (P.Lut 4) 5 ] };
      { P.scope = P.Node ("add", 1); region = P.Datapath;
        parts = [ part "sum" (P.Lut 2) 3 ] };
    ]
  in
  let dp, queue = Elaborate.breakdown nl in
  Alcotest.(check int) "queue" 5 queue.P.luts;
  Alcotest.(check int) "datapath" 3 dp.P.luts

let test_joined_paths () =
  let check want scope leaf =
    Alcotest.(check string) want want
      (P.path (P.scope_name scope) (part leaf P.Ff 1))
  in
  check "dp/add_17/carry" (P.Node ("add", 17)) "carry";
  check "dp/loopnest_0/lvl2/sum" (P.Level ("loopnest", 0, 2)) "sum";
  check "dp/skip_3" (P.Node ("skip", 3)) "";
  check "mem/lsq1/cam" (P.Macro ("lsq", Some 1)) "cam";
  check "mem/squash_net" (P.Macro ("squash_net", None)) ""

let compiled k = Pv_core.Pipeline.compile k

let test_lsq_monotone_in_depth () =
  let c = compiled (Pv_kernels.Defs.polyn_mult ~n:4 ()) in
  let pm = c.Pv_core.Pipeline.info.Pv_frontend.Depend.portmap in
  let luts d =
    (P.totals (Elaborate.circuit c.Pv_core.Pipeline.graph pm (Elaborate.D_plain_lsq d))).P.luts
  in
  Alcotest.(check bool) "16 < 32" true (luts 16 < luts 32);
  Alcotest.(check bool) "32 < 64" true (luts 32 < luts 64)

let test_prevv_monotone_in_depth () =
  let c = compiled (Pv_kernels.Defs.polyn_mult ~n:4 ()) in
  let pm = c.Pv_core.Pipeline.info.Pv_frontend.Depend.portmap in
  let luts d =
    (P.totals (Elaborate.circuit c.Pv_core.Pipeline.graph pm (Elaborate.D_prevv d))).P.luts
  in
  Alcotest.(check bool) "16 < 64" true (luts 16 < luts 64);
  Alcotest.(check bool) "64 < 128" true (luts 64 < luts 128)

let test_prevv_smaller_than_lsq () =
  (* the headline claim, at the component level *)
  List.iter
    (fun k ->
      let c = compiled k in
      let pm = c.Pv_core.Pipeline.info.Pv_frontend.Depend.portmap in
      let total d = P.totals (Elaborate.circuit c.Pv_core.Pipeline.graph pm d) in
      let lsq = total (Elaborate.D_fast_lsq 32) in
      let prevv = total (Elaborate.D_prevv 16) in
      Alcotest.(check bool) (k.Pv_kernels.Ast.name ^ " LUTs shrink") true
        (prevv.P.luts < lsq.P.luts);
      Alcotest.(check bool) (k.Pv_kernels.Ast.name ^ " FFs shrink") true
        (prevv.P.ffs < lsq.P.ffs))
    (Pv_kernels.Defs.paper_benchmarks ())

let test_fast_lsq_adds_area () =
  let c = compiled (Pv_kernels.Defs.polyn_mult ~n:4 ()) in
  let pm = c.Pv_core.Pipeline.info.Pv_frontend.Depend.portmap in
  let luts d = (P.totals (Elaborate.circuit c.Pv_core.Pipeline.graph pm d)).P.luts in
  (* the fast-token network of [8] costs a little extra area (Table I) *)
  Alcotest.(check bool) "[8] >= [15]" true
    (luts (Elaborate.D_fast_lsq 32) >= luts (Elaborate.D_plain_lsq 32))

let test_breakdown_separates_queue () =
  let c = compiled (Pv_kernels.Defs.polyn_mult ~n:4 ()) in
  let pm = c.Pv_core.Pipeline.info.Pv_frontend.Depend.portmap in
  let nl = Elaborate.circuit c.Pv_core.Pipeline.graph pm (Elaborate.D_plain_lsq 32) in
  let dp, queue = Elaborate.breakdown nl in
  let t = P.totals nl in
  Alcotest.(check int) "partition is exact" t.P.luts (dp.P.luts + queue.P.luts);
  Alcotest.(check bool) "queue dominates (Fig. 1)" true
    (queue.P.luts > 4 * dp.P.luts)

(* one component's totals at the fixed 32-bit data width *)
let binop op =
  P.add P.zero (Gen.component (Pv_dataflow.Types.Binop op))

let test_mulc_cheaper_than_mul () =
  let mul = binop Pv_dataflow.Types.Mul in
  let mulc = binop Pv_dataflow.Types.Mulc in
  Alcotest.(check bool) "mulc has no DSP" true (mulc.P.dsps = 0);
  Alcotest.(check bool) "mul uses DSP" true (mul.P.dsps > 0);
  Alcotest.(check bool) "mulc has no pipeline FFs" true (mulc.P.ffs < mul.P.ffs)

let test_divider_is_large () =
  let div = binop Pv_dataflow.Types.Div in
  let add = binop Pv_dataflow.Types.Add in
  Alcotest.(check bool) "divider much larger than adder" true
    (div.P.luts > 4 * add.P.luts)

let test_group_totals () =
  let c = compiled (Pv_kernels.Defs.polyn_mult ~n:4 ()) in
  let pm = c.Pv_core.Pipeline.info.Pv_frontend.Depend.portmap in
  let nl = Elaborate.circuit c.Pv_core.Pipeline.graph pm (Elaborate.D_plain_lsq 32) in
  let groups = Pv_netlist.Primitive.group_totals ~depth:1 nl in
  (* the partition is exact *)
  let total = (P.totals nl).P.luts in
  let sum = List.fold_left (fun acc (_, t) -> acc + t.P.luts) 0 groups in
  Alcotest.(check int) "partition exact" total sum;
  (* sorted descending, and "mem" dominates (Fig. 1) *)
  (match groups with
  | (top, _) :: _ -> Alcotest.(check string) "mem biggest" "mem" top
  | [] -> Alcotest.fail "empty grouping");
  (* finer grouping separates the LSQ's internals *)
  let fine = Pv_netlist.Primitive.group_totals ~depth:2 nl in
  Alcotest.(check bool) "order matrix visible" true
    (List.exists (fun (k, _) -> k = "mem/lsq0") fine);
  (* zero segments would merge everything under an empty name *)
  Alcotest.check_raises "depth 0 rejected"
    (Invalid_argument "Primitive.group_totals: depth < 1") (fun () ->
      ignore (Pv_netlist.Primitive.group_totals ~depth:0 nl))

let test_emit_contains_primitives () =
  let c = compiled (Pv_kernels.Defs.histogram ~n:4 ()) in
  let pm = c.Pv_core.Pipeline.info.Pv_frontend.Depend.portmap in
  let nl = Elaborate.circuit c.Pv_core.Pipeline.graph pm (Elaborate.D_prevv 16) in
  let text = Emit.to_string ~entity:"histogram_prevv16" nl in
  let contains needle =
    let nl' = String.length needle and hl = String.length text in
    let rec go i = i + nl' <= hl && (String.sub text i nl' = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "entity" true (contains "entity histogram_prevv16");
  Alcotest.(check bool) "FDRE instances" true (contains "FDRE");
  Alcotest.(check bool) "carry chains" true (contains "CARRY4");
  Alcotest.(check bool) "totals footer" true (contains "-- totals:")

(* property: netlists scale monotonically with kernel size *)
let prop_datapath_monotone =
  QCheck.Test.make ~count:10 ~name:"datapath area grows with kernel size"
    QCheck.(pair (int_range 2 10) (int_range 1 6))
    (fun (n, extra) ->
      let small = compiled (Pv_kernels.Defs.two_mm ~n ()) in
      let big = compiled (Pv_kernels.Defs.two_mm ~n:(n + extra) ()) in
      (* same structure, larger constants: node counts comparable; datapath
         LUTs must not shrink *)
      let luts c = (Elaborate.summarize c.Pv_core.Pipeline.graph).Elaborate.dp.P.luts in
      luts big >= luts small)

let () =
  Alcotest.run "pv_netlist"
    [
      ( "primitives",
        [
          Alcotest.test_case "totals math" `Quick test_totals_math;
          Alcotest.test_case "region split" `Quick test_region_split;
          Alcotest.test_case "joined paths" `Quick test_joined_paths;
        ] );
      ( "macros",
        [
          Alcotest.test_case "LSQ monotone in depth" `Quick
            test_lsq_monotone_in_depth;
          Alcotest.test_case "PreVV monotone in depth" `Quick
            test_prevv_monotone_in_depth;
          Alcotest.test_case "PreVV smaller than LSQ" `Quick
            test_prevv_smaller_than_lsq;
          Alcotest.test_case "fast LSQ adds area" `Quick test_fast_lsq_adds_area;
          Alcotest.test_case "breakdown" `Quick test_breakdown_separates_queue;
        ] );
      ( "components",
        [
          Alcotest.test_case "mulc cheaper than mul" `Quick
            test_mulc_cheaper_than_mul;
          Alcotest.test_case "divider large" `Quick test_divider_is_large;
        ] );
      ( "reports",
        [ Alcotest.test_case "hierarchical grouping" `Quick test_group_totals ] );
      ("emit", [ Alcotest.test_case "vhdl-ish output" `Quick test_emit_contains_primitives ]);
      ("properties", [ QCheck_alcotest.to_alcotest prop_datapath_monotone ]);
    ]
