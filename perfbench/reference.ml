(* Recorded reference results.  A change that legitimately moves a cycle
   count regenerates this file with [bench.exe --print-reference] in a
   change of its own. *)

(* paper_grid and squash_storm fixed cells: label -> simulated cycles *)
let table =
  [
    ("2mm/dynamatic", 2749);
    ("2mm/fast-lsq", 2021);
    ("2mm/oracle", 2021);
    ("2mm/prevv16", 2021);
    ("2mm/prevv64", 2021);
    ("2mm/serial", 26043);
    ("3mm/dynamatic", 3503);
    ("3mm/fast-lsq", 2496);
    ("3mm/oracle", 2207);
    ("3mm/prevv16", 2208);
    ("3mm/prevv64", 2208);
    ("3mm/serial", 29910);
    ("cond_update/fast-lsq", 2073);
    ("cond_update/prevv16", 2073);
    ("cond_update/prevv64", 2073);
    ("fir_smooth/fast-lsq", 5395);
    ("fir_smooth/prevv16", 13132);
    ("fir_smooth/prevv64", 13132);
    ("gaussian/dynamatic", 8681);
    ("gaussian/fast-lsq", 4972);
    ("gaussian/oracle", 2504);
    ("gaussian/prevv16", 6221);
    ("gaussian/prevv64", 4993);
    ("gaussian/serial", 51880);
    ("histogram/fast-lsq", 6161);
    ("histogram/prevv16", 2069);
    ("histogram/prevv64", 2069);
    ("matvec/fast-lsq", 11347);
    ("matvec/prevv16", 45187);
    ("matvec/prevv64", 45187);
    ("polyn_mult/dynamatic", 2407);
    ("polyn_mult/fast-lsq", 2321);
    ("polyn_mult/oracle", 2321);
    ("polyn_mult/prevv16", 2321);
    ("polyn_mult/prevv64", 2321);
    ("polyn_mult/serial", 27658);
    ("running_max/fast-lsq", 8209);
    ("running_max/prevv16", 4223);
    ("running_max/prevv64", 4223);
    ("spmv_like/fast-lsq", 2069);
    ("spmv_like/prevv16", 2069);
    ("spmv_like/prevv64", 2069);
    ("stencil1d/fast-lsq", 2552);
    ("stencil1d/prevv16", 3046);
    ("stencil1d/prevv64", 3046);
    ("triangular/dynamatic", 2713);
    ("triangular/fast-lsq", 2619);
    ("triangular/oracle", 2619);
    ("triangular/prevv16", 2619);
    ("triangular/prevv64", 2619);
    ("triangular/serial", 31212);
    ("triangular_tight/fast-lsq", 11879);
    ("triangular_tight/prevv16", 15130);
    ("triangular_tight/prevv64", 15130);
  ]

let cycles label = List.assoc_opt label table

(* paper_err_pct over the paper grid, in percentage points *)
let paper_err_pct = 1.8834937031169847
