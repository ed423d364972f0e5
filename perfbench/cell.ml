(* One benchmark cell: compile → (simulate → verify) → area report, driven
   from outside the library through each layer's public entry point, so the
   traced run can time every layer call without any hook inside the
   program.  The untraced run goes through exactly the same calls. *)

open Pv_core
module Ast = Pv_kernels.Ast
module Sim = Pv_dataflow.Sim
module Memif = Pv_dataflow.Memif

type source =
  | Kernel of Ast.kernel
  | Text of { name : string; text : string }
      (** printed source, parsed by the cell (the area-only flow) *)

type t = {
  label : string;  (** stable name, e.g. ["gaussian/prevv16"] *)
  source : source;
  init : (string * int array) list option;  (** [None] = default inputs *)
  sim : (string * Pipeline.disambiguation) option;
      (** scheme name and configuration; [None] = area-only cell *)
  sim_cfg : Sim.config;
  reports : Pv_netlist.Elaborate.disambiguation list;
  ref_cycles : int option;  (** recorded reference cycle count *)
}

type result = {
  cycles : int;  (** 0 for an area-only cell *)
  reports : Pv_resource.Report.t list;  (** one per [t.reports] entry *)
  nodes : int;
  evals : int;
  stats : Memif.stats option;
  phases : int array;  (** Prof phase units (traced run only, else zeros) *)
}

(* [Failed]: the op failed (parse error, compile exception).
   [Violation]: the op produced a wrong or unexpected result; the benchmark
   run is incorrect. *)
type failure = Failed of string | Violation of string

let luts r = List.fold_left (fun n x -> n + x.Pv_resource.Report.luts) 0 r.reports
let ffs r = List.fold_left (fun n x -> n + x.Pv_resource.Report.ffs) 0 r.reports

(* the layer that owns a scheme's backend closures *)
let family scheme =
  if String.starts_with ~prefix:"prevv" scheme then "prevv.backend"
  else
    match scheme with
    | "oracle" -> "bounds.oracle"
    | "serial" -> "bounds.serial"
    | _ -> "lsq"

let closure_names =
  [| "begin_instance"; "alloc_group"; "load_req"; "load_poll"; "store_req";
     "store_addr"; "op_skip"; "poll_squash"; "clock"; "quiesced"; "stats";
     "inject"; "describe" |]

(* Wrap every closure of a backend so that its self time and call count
   accumulate into [ns]/[calls], indexed as [closure_names]. *)
let wrap (m : Memif.t) ~(ns : int array) ~(calls : int array) : Memif.t =
  let stop i t0 =
    ns.(i) <- ns.(i) + (Mono.now () - t0);
    calls.(i) <- calls.(i) + 1
  in
  {
    Memif.begin_instance =
      (fun ~seq ~group ->
        let t0 = Mono.now () in
        let r = m.begin_instance ~seq ~group in
        stop 0 t0;
        r);
    alloc_group =
      (fun ~key ~group ->
        let t0 = Mono.now () in
        let r = m.alloc_group ~key ~group in
        stop 1 t0;
        r);
    load_req =
      (fun ~port ~key ~addr ->
        let t0 = Mono.now () in
        let r = m.load_req ~port ~key ~addr in
        stop 2 t0;
        r);
    load_poll =
      (fun ~port slot ->
        let t0 = Mono.now () in
        let r = m.load_poll ~port slot in
        stop 3 t0;
        r);
    store_req =
      (fun ~port ~key ~addr ~value ->
        let t0 = Mono.now () in
        let r = m.store_req ~port ~key ~addr ~value in
        stop 4 t0;
        r);
    store_addr =
      (fun ~port ~key ~addr ->
        let t0 = Mono.now () in
        m.store_addr ~port ~key ~addr;
        stop 5 t0);
    op_skip =
      (fun ~port ~key ->
        let t0 = Mono.now () in
        let r = m.op_skip ~port ~key in
        stop 6 t0;
        r);
    poll_squash =
      (fun () ->
        let t0 = Mono.now () in
        let r = m.poll_squash () in
        stop 7 t0;
        r);
    clock =
      (fun () ->
        let t0 = Mono.now () in
        m.clock ();
        stop 8 t0);
    quiesced =
      (fun () ->
        let t0 = Mono.now () in
        let r = m.quiesced () in
        stop 9 t0;
        r);
    stats =
      (fun () ->
        let t0 = Mono.now () in
        let r = m.stats () in
        stop 10 t0;
        r);
    inject =
      (fun a ->
        let t0 = Mono.now () in
        let r = m.inject a in
        stop 11 t0;
        r);
    describe =
      (fun () ->
        let t0 = Mono.now () in
        let r = m.describe () in
        stop 12 t0;
        r);
  }

let no_phases () = Array.make Pv_obs.Prof.n_phases 0

let span tr name f =
  match tr with
  | None -> f ()
  | Some (sp, rid, root) -> Spans.time sp ~rid ~parent:root name f

let simulate tr c compiled scheme dis =
  let kernel = compiled.Pipeline.kernel in
  let init =
    match c.init with Some i -> i | None -> Pv_kernels.Workload.default_init kernel
  in
  let mem =
    span tr "memory.init" (fun () ->
        Pv_memory.Layout.initial_memory compiled.Pipeline.layout kernel ~init)
  in
  let prof = match tr with None -> Pv_obs.Prof.null | Some _ -> Pv_obs.Prof.create () in
  let inst = span tr "core.scheme.make" (fun () -> Pipeline.backend_full ~prof compiled mem dis) in
  let memif = inst.Scheme.memif in
  let outcome, run_stats =
    match tr with
    | None -> Sim.run ~cfg:c.sim_cfg compiled.Pipeline.graph memif
    | Some (sp, rid, root) ->
        let ns = Array.make (Array.length closure_names) 0 in
        let calls = Array.make (Array.length closure_names) 0 in
        let wrapped = wrap memif ~ns ~calls in
        let id = Spans.fresh sp in
        let t0 = Mono.now () in
        let r = Sim.run ~cfg:c.sim_cfg ~prof compiled.Pipeline.graph wrapped in
        let dur = Mono.now () - t0 in
        Spans.add sp { Spans.id; parent = root; rid; name = "dataflow.sim"; t0; dur; count = 1 };
        let fam = family scheme in
        Array.iteri
          (fun i n ->
            if calls.(i) > 0 then
              Spans.add sp
                {
                  Spans.id = Spans.fresh sp;
                  parent = id;
                  rid;
                  name = fam ^ "." ^ closure_names.(i);
                  t0;
                  dur = n;
                  count = calls.(i);
                })
          ns;
        r
  in
  match outcome with
  | Sim.Finished { cycles } -> (
      let stats = memif.Memif.stats () in
      let result = { Pipeline.outcome; cycles; mem; mem_stats = stats; run_stats } in
      match span tr "core.verify" (fun () -> Pipeline.verify ~init compiled result) with
      | _ :: _ as l ->
          Error (Violation (Printf.sprintf "%s: %d memory mismatches against Interp" c.label (List.length l)))
      | [] -> (
          match c.ref_cycles with
          | Some r when r <> cycles ->
              Error (Violation (Printf.sprintf "%s: %d cycles, reference %d" c.label cycles r))
          | _ ->
              let phases =
                if Pv_obs.Prof.enabled prof then Pv_obs.Prof.phase_totals prof else no_phases ()
              in
              Ok (cycles, run_stats.Sim.evals, Some stats, phases)))
  | o ->
      (* a cell with a recorded reference must finish; on any other cell a
         deadlock or timeout is a failed op, not a wrong answer *)
      let msg = Format.asprintf "%s: %a" c.label Sim.pp_outcome o in
      Error (if c.ref_cycles = None then Failed msg else Violation msg)

(* Run the cell.  With [tr = Some (spans, rid, root)] every layer call is
   recorded as a child span of [root]; without it the call is made bare. *)
let run ?tr (c : t) : (result, failure) Stdlib.result =
  let parsed =
    match c.source with
    | Kernel k -> Ok k
    | Text { name; text } -> (
        match span tr "kernels.parse" (fun () -> Pv_kernels.Parse.kernel ~name text) with
        | Ok k -> Ok k
        | Error e ->
            Error (Failed (Format.asprintf "%s: %a" c.label Pv_kernels.Parse.pp_error e)))
  in
  match parsed with
  | Error f -> Error f
  | Ok kernel -> (
      let options = Pv_frontend.Build.default_options in
      match
        let info =
          span tr "frontend.depend" (fun () ->
              Pv_frontend.Depend.analyse ~cse:options.Pv_frontend.Build.cse kernel)
        in
        let layout = span tr "memory.layout" (fun () -> Pv_memory.Layout.of_kernel kernel) in
        let trace = span tr "frontend.trace" (fun () -> Pv_frontend.Trace.of_kernel kernel info) in
        let graph =
          span tr "frontend.build" (fun () ->
              Pv_frontend.Build.circuit ~options kernel info layout trace)
        in
        { Pipeline.kernel; info; layout; trace; graph }
      with
      | exception e -> Error (Failed (c.label ^ ": compile: " ^ Printexc.to_string e))
      | compiled ->
          let sim_part =
            match c.sim with
            | None -> Ok (0, 0, None, no_phases ())
            | Some (scheme, dis) -> simulate tr c compiled scheme dis
          in
          Result.map
            (fun (cycles, evals, stats, phases) ->
              let portmap = compiled.Pipeline.info.Pv_frontend.Depend.portmap in
              let reports =
                List.map
                  (fun elab ->
                    span tr "resource.report" (fun () ->
                        Pv_resource.Report.of_circuit compiled.Pipeline.graph portmap elab))
                  c.reports
              in
              {
                cycles;
                reports;
                nodes = Pv_dataflow.Graph.n_nodes compiled.Pipeline.graph;
                evals;
                stats;
                phases;
              })
            sim_part)

