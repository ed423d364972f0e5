(* Sec. V-B: scalability for large designs (Eqs. 11-12).

   When one memory operation belongs to n overlapping ambiguous pairs,
   naive per-pair replication doubles hardware per overlap (2^n) and
   collapses frequency; the dimension reduction validates one operation
   per run of consecutive same-type accesses, so a single shared instance
   per array suffices.  This example measures both the analytic model and
   the actual generated hardware as the number of accumulators sharing an
   array grows.

     dune exec examples/scalability.exe *)

open Pv_core

(* a kernel with [n] interleaved accumulations into one array: every load
   overlaps every store, the worst case for per-pair replication *)
let overlapped_kernel n =
  Pv_kernels.Ast.(
    {
      name = Printf.sprintf "overlap%d" n;
      arrays = [ ("acc", 64); ("src", 64) ];
      params = [];
      body =
        [
          for_ "i" (i 0) (i 48)
            (List.init n (fun k ->
                 store "acc"
                   ((v "i" + i k) % i 64)
                   (idx "acc" ((v "i" + i k) % i 64) + idx "src" (v "i"))));
        ];
    })

(* the base frequency the collapse of Eq. 12 is measured against: the
   paper's single-pair PreVV circuits close timing around 150 MHz *)
let frq1_mhz = 150.0

let () =
  Format.printf "Analytic model (Eqs. 11-12), Com_1 = 1, Frq_1 = %.0f MHz:@.@."
    frq1_mhz;
  Format.printf "  %-10s %14s %16s %14s %12s %12s@." "overlap n" "naive 2^n"
    "reduced (linear)" "naive MHz" "naive pairs" "red. pairs";
  List.iter
    (fun n ->
      let ops =
        List.init (2 * n) (fun k ->
            ((if k mod 2 = 0 then Pv_memory.Portmap.OLoad else Pv_memory.Portmap.OStore), k))
      in
      Format.printf "  %-10d %14.0f %16.0f %14.1f %12d %12d@." n
        (Pv_prevv.Overlap.naive_complexity ~n ~com1:1.0)
        (Pv_prevv.Overlap.reduced_complexity ~n ~com1:1.0)
        (Pv_prevv.Overlap.naive_frequency ~n ~frq1:frq1_mhz)
        (Pv_prevv.Overlap.naive_pairs ops)
        (Pv_prevv.Overlap.reduced_pairs ops))
    [ 1; 2; 3; 4; 6; 8 ];

  Format.printf
    "@.Generated hardware with the shared per-array instance (what this@.\
     library builds), as the number of overlapping accumulations grows:@.@.";
  Format.printf "  %-10s %12s %10s %10s %10s@." "overlap n" "naive pairs"
    "LUT" "FF" "cycles";
  List.iter
    (fun n ->
      let kernel = overlapped_kernel n in
      let p = Experiment.run kernel (Scheme.prevv 16) in
      let info = (Pipeline.compile kernel).Pipeline.info in
      Format.printf "  %-10d %12d %10d %10d %10d%s@." n
        (Pv_frontend.Depend.naive_pair_count info)
        p.Experiment.report.Pv_resource.Report.luts
        p.Experiment.report.Pv_resource.Report.ffs p.Experiment.cycles
        (if p.Experiment.verified then "" else "  (NOT VERIFIED)"))
    [ 1; 2; 3; 4 ];
  Format.printf
    "@.The queue cost stays a single instance while the naive pair count@.\
     grows quadratically — the reduction that makes PreVV usable on large@.\
     dataflow designs.@."
