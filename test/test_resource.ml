(* Tests for the area/timing report and the clock-period model. *)

open Pv_resource

let compiled k = Pv_core.Pipeline.compile k

let report k dis =
  let c = compiled k in
  Report.of_circuit c.Pv_core.Pipeline.graph
    c.Pv_core.Pipeline.info.Pv_frontend.Depend.portmap dis

let test_cp_ordering () =
  (* at the same depth: PreVV <= fast LSQ <= plain LSQ search paths *)
  let module E = Pv_netlist.Elaborate in
  let d = 32 in
  Alcotest.(check bool) "prevv fastest" true
    (Timing.mem_cp (E.D_prevv d) < Timing.mem_cp (E.D_fast_lsq d));
  Alcotest.(check bool) "plain slowest" true
    (Timing.mem_cp (E.D_fast_lsq d) < Timing.mem_cp (E.D_plain_lsq d))

let test_cp_depth_sensitivity () =
  (* PreVV's validation is nearly depth-independent; the LSQ search is not *)
  let delta dis = Timing.mem_cp (dis 64) -. Timing.mem_cp (dis 16) in
  Alcotest.(check bool) "prevv flat" true
    (delta (fun d -> Pv_netlist.Elaborate.D_prevv d) < 0.5);
  Alcotest.(check bool) "plain grows" true
    (delta (fun d -> Pv_netlist.Elaborate.D_plain_lsq d) > 1.0)

let test_datapath_cp_div_kernel_slower () =
  let cp k =
    let s =
      Pv_netlist.Elaborate.summarize (compiled k).Pv_core.Pipeline.graph
    in
    Timing.datapath_cp ~nodes:s.nodes ~div:s.div ~mul:s.mul
  in
  Alcotest.(check bool) "gaussian (div) slower than polyn" true
    (cp (Pv_kernels.Defs.gaussian ()) > cp (Pv_kernels.Defs.polyn_mult ()))

let test_cp_in_published_band () =
  (* every published circuit lands between 6.9 and 9.3 ns *)
  List.iter
    (fun k ->
      List.iter
        (fun dis ->
          let r = report k dis in
          Alcotest.(check bool)
            (Printf.sprintf "%s CP %.2f in band" k.Pv_kernels.Ast.name
               r.Report.cp_ns)
            true
            (r.Report.cp_ns > 6.5 && r.Report.cp_ns < 9.5))
        [
          Pv_netlist.Elaborate.D_plain_lsq 32;
          Pv_netlist.Elaborate.D_fast_lsq 32;
          Pv_netlist.Elaborate.D_prevv 16;
          Pv_netlist.Elaborate.D_prevv 64;
        ])
    (Pv_kernels.Defs.paper_benchmarks ())

let test_exec_time () =
  Alcotest.(check (float 1e-9)) "us conversion" 14.4
    (Timing.exec_time_us ~cycles:1800 ~cp_ns:8.0)

let test_queue_share_band () =
  (* Fig. 1: >80% of plain-Dynamatic resources sit in the LSQ *)
  List.iter
    (fun k ->
      let r = report k (Pv_netlist.Elaborate.D_plain_lsq 32) in
      let share = Report.queue_share r in
      Alcotest.(check bool)
        (Printf.sprintf "%s share %.2f > 0.8" k.Pv_kernels.Ast.name share)
        true (share > 0.8))
    (Pv_kernels.Defs.paper_benchmarks ())

let test_report_consistency () =
  let r = report (Pv_kernels.Defs.two_mm ()) (Pv_netlist.Elaborate.D_prevv 16) in
  Alcotest.(check int) "lut split exact" r.Report.luts
    (r.Report.datapath_luts + r.Report.queue_luts);
  Alcotest.(check int) "ff split exact" r.Report.ffs
    (r.Report.datapath_ffs + r.Report.queue_ffs)

(* the Table-I reduction bands, as a regression test of the whole model *)
let test_reduction_bands () =
  let geo = ref [] in
  List.iter
    (fun k ->
      let p8 = report k (Pv_netlist.Elaborate.D_fast_lsq 32) in
      let v16 = report k (Pv_netlist.Elaborate.D_prevv 16) in
      geo := (float_of_int v16.Report.luts /. float_of_int p8.Report.luts) :: !geo)
    (Pv_kernels.Defs.paper_benchmarks ());
  let gm =
    exp (List.fold_left (fun a r -> a +. log r) 0.0 !geo /. float_of_int (List.length !geo))
  in
  (* paper: -43.75%; accept the +-4 point band *)
  Alcotest.(check bool)
    (Printf.sprintf "LUT geomean reduction %.1f%% in band" (100.0 *. (gm -. 1.0)))
    true
    (gm > 0.52 && gm < 0.61)

(* ---- golden area pin ---------------------------------------------------

   The full report of every bundled kernel under every configuration the
   benchmarks and tables use, captured from the netlist model before
   elaboration stopped naming instances.  Any change to an area or
   timing figure shows up here; the values are exact (cp_ns as a
   hexadecimal float literal). *)

module E = Pv_netlist.Elaborate
module P = Pv_netlist.Primitive

let golden_configs =
  [ E.D_plain_lsq 32; E.D_fast_lsq 32 ]
  @ List.map (fun d -> E.D_prevv d) [ 1; 2; 4; 8; 16; 32; 64 ]
  @ [ E.D_oracle; E.D_serial ]

(* per kernel, one row per [golden_configs] entry: luts, ffs, muxes,
   cp_ns, datapath_luts, queue_luts, datapath_ffs, queue_ffs *)
let golden_reports =
  [
    ( "polyn_mult",
      [
        (17292, 4520, 32, 0x1.ec49ba5e353f8p+2, 940, 16352, 552, 3968);
        (17372, 4532, 32, 0x1.d72b020c49ba6p+2, 940, 16432, 552, 3980);
        (8850, 2259, 0, 0x1.ba84dd1fe3f2ep+2, 940, 7910, 552, 1707);
        (8911, 2270, 0, 0x1.ba84dd1fe3f2ep+2, 940, 7971, 552, 1718);
        (9033, 2294, 0, 0x1.ba84dd1fe3f2ep+2, 940, 8093, 552, 1742);
        (9277, 2340, 0, 0x1.ba84dd1fe3f2ep+2, 940, 8337, 552, 1788);
        (9765, 2430, 0, 0x1.bd916872b020cp+2, 940, 8825, 552, 1878);
        (10741, 2608, 0, 0x1.c4bc6a7ef9db2p+2, 940, 9801, 552, 2056);
        (12751, 2962, 0, 0x1.d3126e978d4fep+2, 940, 11811, 552, 2410);
        (940, 552, 0, 0x1.ba84dd1fe3f2ep+2, 940, 0, 552, 0);
        (949, 576, 0, 0x1.ba84dd1fe3f2ep+2, 940, 9, 552, 24);
      ] );
    ( "2mm",
      [
        (37430, 9360, 96, 0x1.ec49ba5e353f8p+2, 3270, 34160, 1424, 7936);
        (37702, 9408, 96, 0x1.d72b020c49ba6p+2, 3270, 34432, 1424, 7984);
        (20384, 4838, 0, 0x1.ce532dac8313dp+2, 3270, 17114, 1424, 3414);
        (20506, 4860, 0, 0x1.ce532dac8313dp+2, 3270, 17236, 1424, 3436);
        (20750, 4908, 0, 0x1.ce532dac8313dp+2, 3270, 17480, 1424, 3484);
        (21238, 5000, 0, 0x1.ce532dac8313dp+2, 3270, 17968, 1424, 3576);
        (22214, 5180, 0, 0x1.ce532dac8313dp+2, 3270, 18944, 1424, 3756);
        (24166, 5536, 0, 0x1.ce532dac8313dp+2, 3270, 20896, 1424, 4112);
        (28186, 6244, 0, 0x1.d3126e978d4fep+2, 3270, 24916, 1424, 4820);
        (3270, 1424, 0, 0x1.ce532dac8313dp+2, 3270, 0, 1424, 0);
        (3294, 1472, 0, 0x1.ce532dac8313dp+2, 3270, 24, 1424, 48);
      ] );
    ( "3mm",
      [
        (56799, 13852, 160, 0x1.ec49ba5e353f8p+2, 4783, 52016, 1948, 11904);
        (57359, 13960, 160, 0x1.d72b020c49ba6p+2, 4783, 52576, 1948, 12012);
        (30585, 7069, 0, 0x1.d4c61f55aaf85p+2, 4783, 25802, 1948, 5121);
        (30768, 7102, 0, 0x1.d4c61f55aaf85p+2, 4783, 25985, 1948, 5154);
        (31134, 7174, 0, 0x1.d4c61f55aaf85p+2, 4783, 26351, 1948, 5226);
        (31866, 7312, 0, 0x1.d4c61f55aaf85p+2, 4783, 27083, 1948, 5364);
        (33330, 7582, 0, 0x1.d4c61f55aaf85p+2, 4783, 28547, 1948, 5634);
        (36258, 8116, 0, 0x1.d4c61f55aaf85p+2, 4783, 31475, 1948, 6168);
        (42288, 9178, 0, 0x1.d4c61f55aaf85p+2, 4783, 37505, 1948, 7230);
        (4783, 1948, 0, 0x1.d4c61f55aaf85p+2, 4783, 0, 1948, 0);
        (4824, 2020, 0, 0x1.d4c61f55aaf85p+2, 4783, 41, 1948, 72);
      ] );
    ( "gaussian",
      [
        (22823, 4962, 128, 0x1.f56b67e7c1814p+2, 2247, 20576, 994, 3968);
        (22951, 4974, 128, 0x1.f56b67e7c1814p+2, 2247, 20704, 994, 3980);
        (12163, 2701, 0, 0x1.f56b67e7c1814p+2, 2247, 9916, 994, 1707);
        (12224, 2712, 0, 0x1.f56b67e7c1814p+2, 2247, 9977, 994, 1718);
        (12346, 2736, 0, 0x1.f56b67e7c1814p+2, 2247, 10099, 994, 1742);
        (12590, 2782, 0, 0x1.f56b67e7c1814p+2, 2247, 10343, 994, 1788);
        (13078, 2872, 0, 0x1.f56b67e7c1814p+2, 2247, 10831, 994, 1878);
        (14054, 3050, 0, 0x1.f56b67e7c1814p+2, 2247, 11807, 994, 2056);
        (16064, 3404, 0, 0x1.f56b67e7c1814p+2, 2247, 13817, 994, 2410);
        (2247, 994, 0, 0x1.f56b67e7c1814p+2, 2247, 0, 994, 0);
        (2268, 1018, 0, 0x1.f56b67e7c1814p+2, 2247, 21, 994, 24);
      ] );
    ( "triangular",
      [
        (18083, 4734, 32, 0x1.ec49ba5e353f8p+2, 1731, 16352, 766, 3968);
        (18163, 4746, 32, 0x1.d72b020c49ba6p+2, 1731, 16432, 766, 3980);
        (10108, 2473, 0, 0x1.c22d7c40dd644p+2, 1731, 8377, 766, 1707);
        (10169, 2484, 0, 0x1.c22d7c40dd644p+2, 1731, 8438, 766, 1718);
        (10291, 2508, 0, 0x1.c22d7c40dd644p+2, 1731, 8560, 766, 1742);
        (10535, 2554, 0, 0x1.c22d7c40dd644p+2, 1731, 8804, 766, 1788);
        (11023, 2644, 0, 0x1.c22d7c40dd644p+2, 1731, 9292, 766, 1878);
        (11999, 2822, 0, 0x1.c4bc6a7ef9db2p+2, 1731, 10268, 766, 2056);
        (14009, 3176, 0, 0x1.d3126e978d4fep+2, 1731, 12278, 766, 2410);
        (1731, 766, 0, 0x1.c22d7c40dd644p+2, 1731, 0, 766, 0);
        (1740, 790, 0, 0x1.c22d7c40dd644p+2, 1731, 9, 766, 24);
      ] );
    ( "histogram",
      [
        (36936, 8646, 128, 0x1.ec49ba5e353f8p+2, 1368, 35568, 710, 7936);
        (37224, 8694, 128, 0x1.d72b020c49ba6p+2, 1368, 35856, 710, 7984);
        (17691, 4124, 0, 0x1.b6d916872b02p+2, 1368, 16323, 710, 3414);
        (17813, 4146, 0, 0x1.b74bc6a7ef9dbp+2, 1368, 16445, 710, 3436);
        (18057, 4194, 0, 0x1.b83126e978d4fp+2, 1368, 16689, 710, 3484);
        (18545, 4286, 0, 0x1.b9fbe76c8b439p+2, 1368, 17177, 710, 3576);
        (19521, 4466, 0, 0x1.bd916872b020cp+2, 1368, 18153, 710, 3756);
        (21473, 4822, 0, 0x1.c4bc6a7ef9db2p+2, 1368, 20105, 710, 4112);
        (25493, 5530, 0, 0x1.d3126e978d4fep+2, 1368, 24125, 710, 4820);
        (1368, 710, 0, 0x1.acc52bf0fd934p+2, 1368, 0, 710, 0);
        (1396, 758, 0, 0x1.acc52bf0fd934p+2, 1368, 28, 710, 48);
      ] );
    ( "fn_dependent",
      [
        (38134, 9580, 128, 0x1.ec49ba5e353f8p+2, 2566, 35568, 1644, 7936);
        (38422, 9628, 128, 0x1.e215b14c60041p+2, 2566, 35856, 1644, 7984);
        (20164, 5058, 0, 0x1.e215b14c60041p+2, 2566, 17598, 1644, 3414);
        (20286, 5080, 0, 0x1.e215b14c60041p+2, 2566, 17720, 1644, 3436);
        (20530, 5128, 0, 0x1.e215b14c60041p+2, 2566, 17964, 1644, 3484);
        (21018, 5220, 0, 0x1.e215b14c60041p+2, 2566, 18452, 1644, 3576);
        (21994, 5400, 0, 0x1.e215b14c60041p+2, 2566, 19428, 1644, 3756);
        (23946, 5756, 0, 0x1.e215b14c60041p+2, 2566, 21380, 1644, 4112);
        (27966, 6464, 0, 0x1.e215b14c60041p+2, 2566, 25400, 1644, 4820);
        (2566, 1644, 0, 0x1.e215b14c60041p+2, 2566, 0, 1644, 0);
        (2594, 1692, 0, 0x1.e215b14c60041p+2, 2566, 28, 1644, 48);
      ] );
    ( "cond_update",
      [
        (17904, 4618, 32, 0x1.ec49ba5e353f8p+2, 1552, 16352, 650, 3968);
        (17984, 4630, 32, 0x1.d72b020c49ba6p+2, 1552, 16432, 650, 3980);
        (9617, 2357, 0, 0x1.b6d916872b02p+2, 1552, 8065, 650, 1707);
        (9678, 2368, 0, 0x1.b74bc6a7ef9dbp+2, 1552, 8126, 650, 1718);
        (9800, 2392, 0, 0x1.b83126e978d4fp+2, 1552, 8248, 650, 1742);
        (10044, 2438, 0, 0x1.b9fbe76c8b439p+2, 1552, 8492, 650, 1788);
        (10532, 2528, 0, 0x1.bd916872b020cp+2, 1552, 8980, 650, 1878);
        (11508, 2706, 0, 0x1.c4bc6a7ef9db2p+2, 1552, 9956, 650, 2056);
        (13518, 3060, 0, 0x1.d3126e978d4fep+2, 1552, 11966, 650, 2410);
        (1552, 650, 0, 0x1.af3a864b158f2p+2, 1552, 0, 650, 0);
        (1561, 674, 0, 0x1.af3a864b158f2p+2, 1552, 9, 650, 24);
      ] );
    ( "spmv_like",
      [
        (17516, 4674, 32, 0x1.ec49ba5e353f8p+2, 1164, 16352, 706, 3968);
        (17596, 4686, 32, 0x1.d72b020c49ba6p+2, 1164, 16432, 706, 3980);
        (8951, 2413, 0, 0x1.bdd1358bedadbp+2, 1164, 7787, 706, 1707);
        (9012, 2424, 0, 0x1.bdd1358bedadbp+2, 1164, 7848, 706, 1718);
        (9134, 2448, 0, 0x1.bdd1358bedadbp+2, 1164, 7970, 706, 1742);
        (9378, 2494, 0, 0x1.bdd1358bedadbp+2, 1164, 8214, 706, 1788);
        (9866, 2584, 0, 0x1.bdd1358bedadbp+2, 1164, 8702, 706, 1878);
        (10842, 2762, 0, 0x1.c4bc6a7ef9db2p+2, 1164, 9678, 706, 2056);
        (12852, 3116, 0, 0x1.d3126e978d4fep+2, 1164, 11688, 706, 2410);
        (1164, 706, 0, 0x1.bdd1358bedadbp+2, 1164, 0, 706, 0);
        (1173, 730, 0, 0x1.bdd1358bedadbp+2, 1164, 9, 706, 24);
      ] );
    ( "triangular_tight",
      [
        (18083, 4734, 32, 0x1.ec49ba5e353f8p+2, 1731, 16352, 766, 3968);
        (18163, 4746, 32, 0x1.d72b020c49ba6p+2, 1731, 16432, 766, 3980);
        (10108, 2473, 0, 0x1.c22d7c40dd644p+2, 1731, 8377, 766, 1707);
        (10169, 2484, 0, 0x1.c22d7c40dd644p+2, 1731, 8438, 766, 1718);
        (10291, 2508, 0, 0x1.c22d7c40dd644p+2, 1731, 8560, 766, 1742);
        (10535, 2554, 0, 0x1.c22d7c40dd644p+2, 1731, 8804, 766, 1788);
        (11023, 2644, 0, 0x1.c22d7c40dd644p+2, 1731, 9292, 766, 1878);
        (11999, 2822, 0, 0x1.c4bc6a7ef9db2p+2, 1731, 10268, 766, 2056);
        (14009, 3176, 0, 0x1.d3126e978d4fep+2, 1731, 12278, 766, 2410);
        (1731, 766, 0, 0x1.c22d7c40dd644p+2, 1731, 0, 766, 0);
        (1740, 790, 0, 0x1.c22d7c40dd644p+2, 1731, 9, 766, 24);
      ] );
    ( "fir_smooth",
      [
        (20283, 4904, 96, 0x1.ec49ba5e353f8p+2, 1115, 19168, 936, 3968);
        (20395, 4916, 96, 0x1.d72b020c49ba6p+2, 1115, 19280, 936, 3980);
        (9780, 2643, 0, 0x1.d714da6477164p+2, 1115, 8665, 936, 1707);
        (9841, 2654, 0, 0x1.d714da6477164p+2, 1115, 8726, 936, 1718);
        (9963, 2678, 0, 0x1.d714da6477164p+2, 1115, 8848, 936, 1742);
        (10207, 2724, 0, 0x1.d714da6477164p+2, 1115, 9092, 936, 1788);
        (10695, 2814, 0, 0x1.d714da6477164p+2, 1115, 9580, 936, 1878);
        (11671, 2992, 0, 0x1.d714da6477164p+2, 1115, 10556, 936, 2056);
        (13681, 3346, 0, 0x1.d714da6477164p+2, 1115, 12566, 936, 2410);
        (1115, 936, 0, 0x1.d714da6477164p+2, 1115, 0, 936, 0);
        (1132, 960, 0, 0x1.d714da6477164p+2, 1115, 17, 936, 24);
      ] );
    ( "matvec",
      [
        (17457, 4668, 32, 0x1.ec49ba5e353f8p+2, 1105, 16352, 700, 3968);
        (17537, 4680, 32, 0x1.d72b020c49ba6p+2, 1105, 16432, 700, 3980);
        (9115, 2407, 0, 0x1.bcc9f2f687da3p+2, 1105, 8010, 700, 1707);
        (9176, 2418, 0, 0x1.bcc9f2f687da3p+2, 1105, 8071, 700, 1718);
        (9298, 2442, 0, 0x1.bcc9f2f687da3p+2, 1105, 8193, 700, 1742);
        (9542, 2488, 0, 0x1.bcc9f2f687da3p+2, 1105, 8437, 700, 1788);
        (10030, 2578, 0, 0x1.bd916872b020cp+2, 1105, 8925, 700, 1878);
        (11006, 2756, 0, 0x1.c4bc6a7ef9db2p+2, 1105, 9901, 700, 2056);
        (13016, 3110, 0, 0x1.d3126e978d4fep+2, 1105, 11911, 700, 2410);
        (1105, 700, 0, 0x1.bcc9f2f687da3p+2, 1105, 0, 700, 0);
        (1114, 724, 0, 0x1.bcc9f2f687da3p+2, 1105, 9, 700, 24);
      ] );
    ( "stencil1d",
      [
        (37361, 9150, 128, 0x1.ec49ba5e353f8p+2, 1793, 35568, 1214, 7936);
        (37649, 9198, 128, 0x1.e09f69dc9bec9p+2, 1793, 35856, 1214, 7984);
        (18594, 4628, 0, 0x1.e09f69dc9bec9p+2, 1793, 16801, 1214, 3414);
        (18716, 4650, 0, 0x1.e09f69dc9bec9p+2, 1793, 16923, 1214, 3436);
        (18960, 4698, 0, 0x1.e09f69dc9bec9p+2, 1793, 17167, 1214, 3484);
        (19448, 4790, 0, 0x1.e09f69dc9bec9p+2, 1793, 17655, 1214, 3576);
        (20424, 4970, 0, 0x1.e09f69dc9bec9p+2, 1793, 18631, 1214, 3756);
        (22376, 5326, 0, 0x1.e09f69dc9bec9p+2, 1793, 20583, 1214, 4112);
        (26396, 6034, 0, 0x1.e09f69dc9bec9p+2, 1793, 24603, 1214, 4820);
        (1793, 1214, 0, 0x1.e09f69dc9bec9p+2, 1793, 0, 1214, 0);
        (1821, 1262, 0, 0x1.e09f69dc9bec9p+2, 1793, 28, 1214, 48);
      ] );
    ( "bicg",
      [
        (34800, 9204, 64, 0x1.ec49ba5e353f8p+2, 2048, 32752, 1268, 7936);
        (35056, 9252, 64, 0x1.d72b020c49ba6p+2, 2048, 33008, 1268, 7984);
        (17994, 4682, 0, 0x1.c8a8a5052b552p+2, 2048, 15946, 1268, 3414);
        (18116, 4704, 0, 0x1.c8a8a5052b552p+2, 2048, 16068, 1268, 3436);
        (18360, 4752, 0, 0x1.c8a8a5052b552p+2, 2048, 16312, 1268, 3484);
        (18848, 4844, 0, 0x1.c8a8a5052b552p+2, 2048, 16800, 1268, 3576);
        (19824, 5024, 0, 0x1.c8a8a5052b552p+2, 2048, 17776, 1268, 3756);
        (21776, 5380, 0, 0x1.c8a8a5052b552p+2, 2048, 19728, 1268, 4112);
        (25796, 6088, 0, 0x1.d3126e978d4fep+2, 2048, 23748, 1268, 4820);
        (2048, 1268, 0, 0x1.c8a8a5052b552p+2, 2048, 0, 1268, 0);
        (2068, 1316, 0, 0x1.c8a8a5052b552p+2, 2048, 20, 1268, 48);
      ] );
    ( "running_max",
      [
        (17481, 4694, 32, 0x1.ec49ba5e353f8p+2, 1129, 16352, 726, 3968);
        (17561, 4706, 32, 0x1.d72b020c49ba6p+2, 1129, 16432, 726, 3980);
        (9322, 2433, 0, 0x1.d2db2b014a74ep+2, 1129, 8193, 726, 1707);
        (9383, 2444, 0, 0x1.d2db2b014a74ep+2, 1129, 8254, 726, 1718);
        (9505, 2468, 0, 0x1.d2db2b014a74ep+2, 1129, 8376, 726, 1742);
        (9749, 2514, 0, 0x1.d2db2b014a74ep+2, 1129, 8620, 726, 1788);
        (10237, 2604, 0, 0x1.d2db2b014a74ep+2, 1129, 9108, 726, 1878);
        (11213, 2782, 0, 0x1.d2db2b014a74ep+2, 1129, 10084, 726, 2056);
        (13223, 3136, 0, 0x1.d3126e978d4fep+2, 1129, 12094, 726, 2410);
        (1129, 726, 0, 0x1.d2db2b014a74ep+2, 1129, 0, 726, 0);
        (1138, 750, 0, 0x1.d2db2b014a74ep+2, 1129, 9, 726, 24);
      ] );
  ]

let config_name = function
  | E.D_plain_lsq d -> Printf.sprintf "plain-lsq%d" d
  | E.D_fast_lsq d -> Printf.sprintf "fast-lsq%d" d
  | E.D_prevv d -> Printf.sprintf "prevv%d" d
  | E.D_oracle -> "oracle"
  | E.D_serial -> "serial"

let report_t = Alcotest.testable Report.pp ( = )

let test_golden_reports () =
  let kernels = Pv_kernels.Defs.all () in
  Alcotest.(check (list string)) "kernel set"
    (List.map fst golden_reports)
    (List.map (fun k -> k.Pv_kernels.Ast.name) kernels);
  List.iter2
    (fun k (name, rows) ->
      let c = compiled k in
      let pm = c.Pv_core.Pipeline.info.Pv_frontend.Depend.portmap in
      List.iter2
        (fun dis
             (luts, ffs, muxes, cp_ns, datapath_luts, queue_luts, datapath_ffs,
              queue_ffs) ->
          let want =
            { Report.luts; ffs; muxes; cp_ns; datapath_luts; queue_luts;
              datapath_ffs; queue_ffs }
          in
          Alcotest.check report_t
            (Printf.sprintf "%s/%s" name (config_name dis))
            want
            (Report.of_circuit c.Pv_core.Pipeline.graph pm dis))
        golden_configs rows)
    kernels golden_reports

let elaborate k dis =
  let c = compiled k in
  E.circuit c.Pv_core.Pipeline.graph
    c.Pv_core.Pipeline.info.Pv_frontend.Depend.portmap dis

let test_golden_emit () =
  List.iter
    (fun (k, dis, entity, digest) ->
      Alcotest.(check string) entity digest
        (Digest.to_hex
           (Digest.string (Pv_netlist.Emit.to_string ~entity (elaborate k dis)))))
    [
      ( Pv_kernels.Defs.histogram (), E.D_prevv 16, "histogram_prevv16",
        "675830717b9bf35cf48ed5093b9bf91b" );
      ( Pv_kernels.Defs.gaussian (), E.D_plain_lsq 32, "gaussian_plain_lsq32",
        "89986f51603a56aad785032266aef6cd" );
      (* the rest of the five paper kernels x {prevv16, plain-lsq32} *)
      ( Pv_kernels.Defs.polyn_mult (), E.D_prevv 16, "polyn_mult_prevv16",
        "2079d018ca9c70fdf54a1281feaaeeb3" );
      ( Pv_kernels.Defs.polyn_mult (), E.D_plain_lsq 32, "polyn_mult_plain_lsq32",
        "445867e8bb114e887f2bcc0d03387e02" );
      ( Pv_kernels.Defs.two_mm (), E.D_prevv 16, "2mm_prevv16",
        "b79fc16e10a1fb36c2ca9aa170bb3847" );
      ( Pv_kernels.Defs.two_mm (), E.D_plain_lsq 32, "2mm_plain_lsq32",
        "aed19e391b672bb0509e4673a6c72627" );
      ( Pv_kernels.Defs.three_mm (), E.D_prevv 16, "3mm_prevv16",
        "6aea9b0b0fc231d4218402a4416c5c64" );
      ( Pv_kernels.Defs.three_mm (), E.D_plain_lsq 32, "3mm_plain_lsq32",
        "129f4749bf9c6be204bc1b91bc6b8be9" );
      ( Pv_kernels.Defs.gaussian (), E.D_prevv 16, "gaussian_prevv16",
        "2d8598b2b369148a7bea2d3b58036c67" );
      ( Pv_kernels.Defs.triangular (), E.D_prevv 16, "triangular_prevv16",
        "70fec77e1ebc13920cca56c10f9ed6bc" );
      ( Pv_kernels.Defs.triangular (), E.D_plain_lsq 32, "triangular_plain_lsq32",
        "89b690729b4903ba146f7b3e20525c5d" );
    ]

let test_golden_groups () =
  let rows =
    P.group_totals ~depth:2
      (elaborate (Pv_kernels.Defs.polyn_mult ()) (E.D_plain_lsq 32))
  in
  Alcotest.(check (list (triple string int int)))
    "polyn_mult/plain-lsq32 depth-2 rows, in order"
    [
    ("mem/lsq0", 16352, 3968); ("dp/loopnest_0", 180, 132); ("mem/mc", 56, 8);
    ("dp/slack_36", 39, 4); ("dp/fifo_21", 39, 4); ("dp/slack_40", 39, 6);
    ("dp/fifo_31", 39, 4); ("dp/slack_39", 39, 4); ("dp/fifo_32", 39, 4);
    ("dp/slack_34", 39, 6); ("dp/slack_35", 39, 6); ("dp/addr_a_23", 34, 0);
    ("dp/addr_c_19", 34, 0); ("dp/add_17", 34, 0); ("dp/addr_b_26", 34, 0);
    ("dp/addr_c_16", 34, 0); ("dp/add_29", 34, 0); ("dp/add_14", 34, 0);
    ("dp/gate_eq_3", 18, 0); ("dp/fork_ctrl_13", 10, 0);
    ("dp/fork_var_j_10", 8, 0); ("dp/gate_cond_4", 8, 0);
    ("dp/store_c_30", 8, 44); ("dp/fork_var_i_7", 8, 0);
    ("dp/gate_sid_1", 8, 0); ("dp/load_b_27", 7, 12); ("dp/load_a_24", 7, 12);
    ("dp/load_c_20", 7, 12); ("dp/const_18", 6, 0); ("dp/gate_iv_5", 6, 0);
    ("dp/gate_iv_8", 6, 0); ("dp/const_2", 6, 0); ("dp/const_22", 6, 0);
    ("dp/const_15", 6, 0); ("dp/gate_ctrl_11", 6, 0); ("dp/const_25", 6, 0);
    ("dp/slack_33", 5, 66); ("dp/slack_38", 5, 66); ("dp/slack_37", 5, 66);
    ("dp/mul_28", 2, 96);
    ]
    (List.map (fun (k, t) -> (k, t.P.luts, t.P.ffs)) rows)

(* ---- the Fig. 1 split over generated kernels --------------------------- *)

(* the area_sweep shape: nesting depth 3, conditionals, indirect indices
   and division *)
let sweep_spec =
  {
    Pv_kernels.Generate.max_depth = 3;
    max_stmts = 3;
    max_arrays = 4;
    array_len = 64;
    trip = 8;
    allow_if = true;
    allow_indirect = true;
    allow_div = true;
  }

let prop_split_partitions =
  QCheck.Test.make ~count:25 ~name:"report split partitions the netlist"
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let c = compiled (Pv_kernels.Generate.kernel ~spec:sweep_spec seed) in
      let pm = c.Pv_core.Pipeline.info.Pv_frontend.Depend.portmap in
      List.for_all
        (fun dis ->
          let g = c.Pv_core.Pipeline.graph in
          let r = Report.of_circuit g pm dis in
          let nl = E.circuit g pm dis in
          let t = P.totals nl in
          let groups = P.group_totals ~depth:1 nl in
          let sum f = List.fold_left (fun acc (_, x) -> acc + f x) 0 groups in
          r.Report.luts = t.P.luts && r.Report.ffs = t.P.ffs
          && r.Report.muxes = t.P.muxes
          && r.Report.datapath_luts + r.Report.queue_luts = t.P.luts
          && r.Report.datapath_ffs + r.Report.queue_ffs = t.P.ffs
          && sum (fun x -> x.P.luts) = t.P.luts
          && sum (fun x -> x.P.ffs) = t.P.ffs
          && sum (fun x -> x.P.muxes) = t.P.muxes
          && (dis <> E.D_oracle || Report.queue_share r = 0.0))
        golden_configs)

(* ---- the report fold against the collected netlist ------------------- *)

(* the achieved clock period from a scan of the graph's own nodes: the
   worse of the datapath and memory-subsystem critical paths *)
let reference_cp (g : Pv_dataflow.Graph.t) dis =
  let module T = Pv_dataflow.Types in
  let has p = Pv_dataflow.Graph.count_nodes (fun n -> p n.Pv_dataflow.Graph.kind) g > 0 in
  let dp =
    Timing.datapath_cp ~nodes:(Pv_dataflow.Graph.n_nodes g)
      ~div:(has (function T.Binop (T.Div | T.Rem) -> true | _ -> false))
      ~mul:(has (function T.Binop T.Mul -> true | _ -> false))
  in
  Float.max dp (Timing.mem_cp dis)

(* Report.of_circuit's figures must be those of the collected netlist,
   split by Elaborate.breakdown, and its period the reference one *)
let check_report_equivalence name g pm dis =
  let r = Report.of_circuit g pm dis in
  let nl = E.circuit g pm dis in
  let dp, queue = E.breakdown nl in
  Alcotest.(check (list int))
    (name ^ ": report = breakdown")
    [ dp.P.luts + queue.P.luts; dp.P.ffs + queue.P.ffs;
      dp.P.muxes + queue.P.muxes; dp.P.luts; queue.P.luts; dp.P.ffs;
      queue.P.ffs ]
    [ r.Report.luts; r.Report.ffs; r.Report.muxes; r.Report.datapath_luts;
      r.Report.queue_luts; r.Report.datapath_ffs; r.Report.queue_ffs ];
  Alcotest.(check (float 0.0))
    (name ^ ": cp_ns = reference") (reference_cp g dis) r.Report.cp_ns;
  (nl, dp, queue)

(* Report.of_circuit sums the datapath by a table-driven walk and tallies
   the macros; on every bundled kernel and 200 generated ones of the
   area_sweep shape, under area_sweep's nine configurations and the two
   bounds, it must agree with the collected netlist *)
let test_fold_equivalence () =
  let kernels =
    Pv_kernels.Defs.all ()
    @ List.init 200 (fun seed -> Pv_kernels.Generate.kernel ~spec:sweep_spec seed)
  in
  let totals_t = Alcotest.testable P.pp_totals ( = ) in
  List.iteri
    (fun i k ->
      let c = compiled k in
      let g = c.Pv_core.Pipeline.graph in
      let pm = c.Pv_core.Pipeline.info.Pv_frontend.Depend.portmap in
      List.iter
        (fun dis ->
          let name =
            Printf.sprintf "%d:%s/%s" i k.Pv_kernels.Ast.name (config_name dis)
          in
          let nl, dp, queue = check_report_equivalence name g pm dis in
          let sum =
            {
              P.luts = dp.P.luts + queue.P.luts;
              ffs = dp.P.ffs + queue.P.ffs;
              muxes = dp.P.muxes + queue.P.muxes;
              carries = dp.P.carries + queue.P.carries;
              dsps = dp.P.dsps + queue.P.dsps;
              brams = dp.P.brams + queue.P.brams;
            }
          in
          Alcotest.check totals_t (name ^ ": totals = datapath + queue") sum
            (P.totals nl))
        golden_configs)
    kernels

(* A hand-built graph whose arities and slot counts run past
   [Types.sized_bound], next to in-table kinds with payload variants (ports, constants,
   groups, transparency, a three-level generator, div and mul): the
   fallback tallies parts, and the report still equals the collected
   netlist under every configuration.  The graph's nodes are not wired;
   elaboration reads kinds only. *)
let test_table_fallback () =
  let module T = Pv_dataflow.Types in
  let module G = Pv_dataflow.Graph in
  let b = G.create () in
  let spec = Literal_gen.spec ~arity:3 [||] in
  List.iter
    (fun kind -> ignore (G.add b kind))
    [
      T.Gen spec; T.Fork 100; T.Join 70; T.Merge (T.sized_bound + 1); T.Mux 80;
      T.Buffer { transparent = true; slots = 100 };
      T.Buffer { transparent = false; slots = T.sized_bound + 1 };
      T.Fork T.sized_bound; T.Mux T.sized_bound;
      T.Buffer { transparent = true; slots = T.sized_bound };
      T.Buffer { transparent = true; slots = 3 };
      T.Load { port = 3 }; T.Load { port = 0 }; T.Store { port = 7 };
      T.Skip { port = 2 }; T.Const 42; T.Const (-5);
      T.Galloc { group = 5 }; T.Galloc { group = 0 };
      T.Binop T.Div; T.Binop T.Mul; T.Unop T.Not; T.Sink; T.Branch;
    ];
  let g = G.finalize b in
  let pm =
    (compiled (Pv_kernels.Defs.histogram ())).Pv_core.Pipeline.info
      .Pv_frontend.Depend.portmap
  in
  let totals_t = Alcotest.testable P.pp_totals ( = ) in
  let node_blocks =
    List.filter
      (fun b -> match b.P.scope with P.Macro _ -> false | _ -> true)
      (E.circuit g pm E.D_oracle)
  in
  Alcotest.check totals_t "summarize = datapath netlist"
    (P.totals node_blocks) (E.summarize g).E.dp;
  List.iter
    (fun dis ->
      ignore (check_report_equivalence ("fallback/" ^ config_name dis) g pm dis))
    golden_configs

(* The per-node walk the census fold replaced: each node's parts, each
   generator level, and the div/mul flags. *)
let walk_summary g =
  let module T = Pv_dataflow.Types in
  let module G = Pv_dataflow.Graph in
  let t = P.tally () and div = ref false and mul = ref false in
  G.iter_nodes
    (fun n ->
      P.tally_add t (Pv_netlist.Gen.component n.G.kind);
      match n.G.kind with
      | T.Gen gs ->
          for _ = 1 to gs.T.gen_arity do
            P.tally_add t Pv_netlist.Gen.loop_level
          done
      | T.Binop (T.Div | T.Rem) -> div := true
      | T.Binop T.Mul -> mul := true
      | _ -> ())
    g;
  { E.dp = P.tallied t; nodes = G.n_nodes g; div = !div; mul = !mul }

(* the area_sweep benchmark's generated shape *)
let area_spec =
  {
    Pv_kernels.Generate.max_depth = 3;
    max_stmts = 3;
    max_arrays = 4;
    array_len = 64;
    trip = 8;
    allow_if = true;
    allow_indirect = true;
    allow_div = true;
  }

(* [summarize] folds the census [Graph.finalize] counts and
   [Graph.splice_buffers] extends: it equals a per-node walk on every
   bundled kernel and 200 generated ones, balanced (spliced) and not, and
   on a hand-built graph whose fork and spliced buffers run past
   [Types.sized_bound]. *)
let test_census_matches_walk () =
  let module T = Pv_dataflow.Types in
  let module G = Pv_dataflow.Graph in
  let same name g =
    Alcotest.(check bool) (name ^ ": census fold = per-node walk") true
      (E.summarize g = walk_summary g)
  in
  List.iter
    (fun k ->
      List.iter
        (fun balance ->
          let options =
            { Pv_frontend.Build.default_options with Pv_frontend.Build.balance }
          in
          same
            (Printf.sprintf "%s, balance %b" k.Pv_kernels.Ast.name balance)
            (Pv_core.Pipeline.compile ~options k).Pv_core.Pipeline.graph)
        [ false; true ])
    (Pv_kernels.Defs.all ()
    @ List.init 200 (fun seed -> Pv_kernels.Generate.kernel ~spec:area_spec seed));
  let b = G.create () in
  let gen = G.add b (T.Gen (Literal_gen.spec ~arity:2 [||])) in
  let fork = G.add b (T.Fork 70) in
  G.connect b (gen, 0) (fork, 0);
  let div = G.add b (T.Binop T.Div) in
  G.connect b (gen, 1) (div, 0);
  G.connect b (fork, 69) (div, 1);
  G.connect b (div, 0) (G.add b T.Sink, 0);
  for i = 0 to 68 do
    G.connect b (fork, i) (G.add b T.Sink, 0)
  done;
  let g = G.finalize b in
  same "hand-built" g;
  let slots = Array.make (G.n_chans g) 0 in
  slots.(0) <- 100;
  slots.(1) <- 3;
  slots.(2) <- T.sized_bound;
  slots.(5) <- T.sized_bound + 1;
  let spliced = G.splice_buffers g slots in
  Alcotest.(check int) "four buffers spliced" (G.n_nodes g + 4) (G.n_nodes spliced);
  same "hand-built, spliced" spliced

(* Report.of_circuit allocates at most 8 minor words per graph node on
   each paper kernel under every configuration (1.4-7.0 measured): the
   datapath walk allocates nothing per node, so what remains is per report
   (the walk's closure and tallies, the macros' parts).  Warm once, then
   take the Gc.minor_words delta, as test_sim_perf does. *)
let test_report_alloc () =
  List.iter
    (fun k ->
      let c = compiled k in
      let g = c.Pv_core.Pipeline.graph in
      let pm = c.Pv_core.Pipeline.info.Pv_frontend.Depend.portmap in
      let nodes = float_of_int (Pv_dataflow.Graph.n_nodes g) in
      List.iter
        (fun dis ->
          ignore (Report.of_circuit g pm dis);
          let w0 = Gc.minor_words () in
          ignore (Report.of_circuit g pm dis);
          let per_node = (Gc.minor_words () -. w0) /. nodes in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s: %.1f minor words per node <= 8"
               k.Pv_kernels.Ast.name (config_name dis) per_node)
            true (per_node <= 8.0))
        golden_configs)
    (Pv_kernels.Defs.paper_benchmarks ())

(* Sec. V-B's reduction on the built circuit: an overlap chain of degree
   n forms n * n ambiguous pairs, all on one disambiguation instance, and
   PreVV16's queue grows with the members it holds, not with the pairs *)
let test_overlap_chain () =
  let queue_luts =
    List.init 8 (fun k ->
        let n = k + 1 in
        let kernel = Pv_kernels.Defs.overlap_chain ~n in
        let c = compiled kernel in
        let info = c.Pv_core.Pipeline.info in
        let what = Printf.sprintf "n = %d: " n in
        Alcotest.(check int) (what ^ "one instance") 1
          info.Pv_frontend.Depend.portmap.Pv_memory.Portmap.n_instances;
        Alcotest.(check int) (what ^ "n * n naive pairs") (n * n)
          (Pv_frontend.Depend.naive_pair_count info);
        let p = Pv_core.Experiment.run ~compiled:c kernel (Pv_core.Scheme.prevv 16) in
        Alcotest.(check bool) (what ^ "verified under PreVV16") true
          p.Pv_core.Experiment.verified;
        p.Pv_core.Experiment.report.Report.queue_luts)
  in
  ignore
    (List.fold_left
       (fun prev luts ->
         Alcotest.(check bool)
           (Printf.sprintf "queue LUTs rise: %d > %d" luts prev)
           true (luts > prev);
         luts)
       (List.hd queue_luts) (List.tl queue_luts))

(* the same chains against the fast LSQ [8]: it verifies too, and costs
   more LUTs than PreVV16 at every degree *)
let test_overlap_chain_vs_fast_lsq () =
  for n = 1 to 8 do
    let kernel = Pv_kernels.Defs.overlap_chain ~n in
    let c = compiled kernel in
    let run dis = Pv_core.Experiment.run ~compiled:c kernel dis in
    let p = run (Pv_core.Scheme.prevv 16) and f = run Pv_core.Scheme.fast_lsq in
    Alcotest.(check bool) (Printf.sprintf "n = %d: fast LSQ verified" n) true
      f.Pv_core.Experiment.verified;
    let lut (q : Pv_core.Experiment.point) = q.Pv_core.Experiment.report.Report.luts in
    Alcotest.(check bool)
      (Printf.sprintf "n = %d: PreVV16 %d < fast LSQ %d LUTs" n (lut p) (lut f))
      true
      (lut p < lut f)
  done

(* one shared instance keeps PreVV16's modelled clock period nearly flat:
   it never falls as n grows, and rises by under 1 ns from n = 1 to 8 *)
let test_overlap_chain_cp () =
  let cps =
    List.init 8 (fun k ->
        let kernel = Pv_kernels.Defs.overlap_chain ~n:(k + 1) in
        (Pv_core.Experiment.run ~compiled:(compiled kernel) kernel
           (Pv_core.Scheme.prevv 16))
          .Pv_core.Experiment.report.Report.cp_ns)
  in
  ignore
    (List.fold_left
       (fun prev cp ->
         Alcotest.(check bool)
           (Printf.sprintf "CP %.2f >= %.2f ns" cp prev)
           true (cp >= prev);
         cp)
       (List.hd cps) (List.tl cps));
  let spread = List.nth cps 7 -. List.hd cps in
  Alcotest.(check bool) (Printf.sprintf "CP rises %.2f < 1 ns" spread) true
    (spread < 1.0)

let () =
  Alcotest.run "pv_resource"
    [
      ( "timing",
        [
          Alcotest.test_case "CP ordering" `Quick test_cp_ordering;
          Alcotest.test_case "CP depth sensitivity" `Quick
            test_cp_depth_sensitivity;
          Alcotest.test_case "div kernel slower" `Quick
            test_datapath_cp_div_kernel_slower;
          Alcotest.test_case "CP in published band" `Quick test_cp_in_published_band;
          Alcotest.test_case "exec time" `Quick test_exec_time;
        ] );
      ( "report",
        [
          Alcotest.test_case "queue share (Fig. 1)" `Quick test_queue_share_band;
          Alcotest.test_case "split consistency" `Quick test_report_consistency;
          Alcotest.test_case "reduction bands (Table I)" `Quick
            test_reduction_bands;
          Alcotest.test_case "fold = collected netlist" `Quick
            test_fold_equivalence;
          Alcotest.test_case "table fallback = collected netlist" `Quick
            test_table_fallback;
          Alcotest.test_case "census fold = per-node walk" `Quick
            test_census_matches_walk;
          Alcotest.test_case "<= 8 minor words per node" `Quick
            test_report_alloc;
          Alcotest.test_case "overlap chain (Sec. V-B)" `Quick
            test_overlap_chain;
          Alcotest.test_case "overlap chain vs fast LSQ" `Quick
            test_overlap_chain_vs_fast_lsq;
          Alcotest.test_case "overlap chain CP" `Quick test_overlap_chain_cp;
        ] );
      ( "golden",
        [
          Alcotest.test_case "every kernel x config" `Quick test_golden_reports;
          Alcotest.test_case "emitted netlists" `Quick test_golden_emit;
          Alcotest.test_case "depth-2 grouping" `Quick test_golden_groups;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_split_partitions ]);
    ]
