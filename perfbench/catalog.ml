(* The metric catalogue: every name the benchmark prints, with its unit.
   BENCHMARK.json lists the same names (test_bench checks it), and the
   runner refuses to print a result that misses or adds one. *)

(* end-to-end metrics, printed by every untraced run *)
let end_to_end =
  [
    ("setup_s", "s");
    ("cells_per_s", "1/s");
    ("cell_ms_p50", "ms");
    ("cell_ms_p95", "ms");
    ("heap_peak_mb", "MiB");
    ("model_luts", "count");
    ("model_ffs", "count");
  ]

(* per-layer metrics, printed by every traced run; a layer the workload
   does not exercise reads 0 *)
let per_layer =
  [
    ("dataflow.sim.self_ms", "ms");
    ("dataflow.sim.ns_per_cycle", "ns");
    ("dataflow.sim.ns_per_eval", "ns");
    ("dataflow.sim.evals_per_cycle", "ratio");
    ("dataflow.sim.cycles", "cycles");
    ("prevv.backend.self_ms", "ms");
    ("prevv.backend.ns_per_call", "ns");
    ("backend.clock_share", "ratio");
    ("prof.arbiter_scan", "count");
    ("prof.pq_validate", "count");
    ("backend.squashes", "count");
    ("backend.replayed_ops", "count");
    ("backend.useful_share", "ratio");
    ("backend.stall_full", "count");
    ("backend.stall_order", "count");
    ("backend.stall_bw", "count");
    ("backend.stall_alloc", "count");
    ("lsq.self_ms", "ms");
    ("lsq.ns_per_call", "ns");
    ("prof.lsq_cam", "count");
    ("backend.forwarded", "count");
    ("bounds.oracle.self_ms", "ms");
    ("bounds.serial.self_ms", "ms");
    ("kernels.parse.us_p50", "us");
    ("frontend.depend.us_p50", "us");
    ("frontend.trace.us_p50", "us");
    ("frontend.build.us_p50", "us");
    ("memory.layout.us_p50", "us");
    ("dataflow.graph.nodes", "count");
    ("resource.report.us_p50", "us");
    ("core.scheme.make.us_p50", "us");
    ("core.verify.ms_total", "ms");
    ("prof.mem_service", "count");
    ("prof.circuit_sweep", "count");
    ("service.internal_ms_p50", "ms");
    ("service.internal_ms_p95", "ms");
    ("service.queue_depth_max", "count");
    ("service.dedup_hits", "count");
    ("service.retries", "count");
    ("parallel.cache.hit_share", "ratio");
    ("ocaml.gc.minor_words_per_cell", "words");
    ("ocaml.gc.major_collections", "count");
    ("loadgen.late_ms_p95", "ms");
    ("loadgen.achieved_rps", "1/s");
    ("trace.overhead_share", "ratio");
    ("trace.residual_share", "ratio");
    ("bench.failed_share", "ratio");
  ]

let workloads = [ "paper_grid"; "squash_storm"; "area_sweep"; "serve_open" ]
