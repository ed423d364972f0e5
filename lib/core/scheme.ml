(* The ONE module allowed to match on [disambiguation]: every adapter,
   name, fingerprint and elaboration hint lives behind the first-class
   module boundary built here (grep-enforced by test_scheme.ml). *)

module Lsq = Pv_lsq.Lsq
module Backend = Pv_prevv.Backend
module Oracle = Pv_bounds.Oracle
module Serial = Pv_bounds.Serial
module Prescience = Pv_bounds.Prescience
module Metrics = Pv_obs.Metrics

type disambiguation =
  | Plain_lsq of Lsq.config
  | Fast_lsq of Lsq.config
  | Prevv of Backend.config
  | Oracle
  | Serial

let plain_lsq = Plain_lsq Lsq.plain
let fast_lsq = Fast_lsq Lsq.fast

let prevv depth = Prevv (Backend.named ~depth)
let oracle = Oracle
let serial = Serial

type env = {
  kernel : Pv_kernels.Ast.kernel;
  info : Pv_frontend.Depend.info;
  schedule : Pv_frontend.Trace.t;
  layout : Pv_memory.Layout.t;
  mem : int array;
  trace : Pv_obs.Trace.t;
  prof : Pv_obs.Prof.t;
}

let make_env ?(trace = Pv_obs.Trace.null) ?(prof = Pv_obs.Prof.null) ~kernel
    ~info ~schedule ~layout mem =
  { kernel; info; schedule; layout; mem; trace; prof }

type instance = {
  memif : Pv_dataflow.Memif.t;
  record_metrics : Pv_obs.Metrics.t -> unit;
}

module type S = sig
  val name : string
  val description : string
  val config : disambiguation
  val fingerprint : string
  val elaboration : Pv_netlist.Elaborate.disambiguation
  val make : env -> instance
end

type t = (module S)

(* ---- names, fingerprints, elaboration hints ---- *)

let to_string = function
  | Plain_lsq _ -> "dynamatic"
  | Fast_lsq _ -> "fast-lsq"
  | Prevv c -> Printf.sprintf "prevv%d" (c.Backend.depth_q / Backend.depth_scale)
  | Oracle -> "oracle"
  | Serial -> "serial"

let description_of = function
  | Plain_lsq _ -> "Dynamatic load-store queue baseline [15]"
  | Fast_lsq _ ->
      "LSQ with fast token delivery [8]: immediate allocation, two groups \
       per cycle"
  | Prevv c ->
      Printf.sprintf
        "PreVV premature value validation, queue depth %d (this paper)"
        (c.Backend.depth_q / Backend.depth_scale)
  | Oracle ->
      "perfect-disambiguation lower bound (prescient, serializes only true \
       conflicts)"
  | Serial ->
      "fully serializing upper bound (one memory op in flight, program order)"

let fingerprint_of dis =
  let repr =
    match dis with
    | Plain_lsq c -> ("plain_lsq", Marshal.to_string c [])
    | Fast_lsq c -> ("fast_lsq", Marshal.to_string c [])
    | Prevv c -> ("prevv", Marshal.to_string c [])
    | Oracle -> ("oracle", "")
    | Serial -> ("serial", "")
  in
  Digest.to_hex (Digest.string (Marshal.to_string repr []))

let elaboration_of = function
  | Plain_lsq c -> Pv_netlist.Elaborate.D_plain_lsq c.Lsq.depth
  | Fast_lsq c -> Pv_netlist.Elaborate.D_fast_lsq c.Lsq.depth
  | Prevv c ->
      Pv_netlist.Elaborate.D_prevv (c.Backend.depth_q / Backend.depth_scale)
  | Oracle -> Pv_netlist.Elaborate.D_oracle
  | Serial -> Pv_netlist.Elaborate.D_serial

(* ---- adapters ---- *)

let make_backend dis env =
  let portmap = env.info.Pv_frontend.Depend.portmap in
  match dis with
  | Plain_lsq cfg | Fast_lsq cfg ->
      {
        memif = Lsq.create ~trace:env.trace ~prof:env.prof cfg portmap env.mem;
        record_metrics = (fun _ -> ());
      }
  | Prevv cfg ->
      let t, memif =
        Backend.create_full ~trace:env.trace ~prof:env.prof cfg portmap
          ~n_seq:(Pv_frontend.Trace.length env.schedule)
          env.mem
      in
      {
        memif;
        record_metrics =
          (fun m ->
            let a = Backend.arbiter_stats t in
            Metrics.add m "scheme.prevv.arbiter.checks" a.Pv_prevv.Arbiter.checks;
            Metrics.add m "scheme.prevv.arbiter.violations"
              a.Pv_prevv.Arbiter.violations;
            Metrics.add m "scheme.prevv.arbiter.gate_clear"
              a.Pv_prevv.Arbiter.gate_clear;
            Metrics.add m "scheme.prevv.arbiter.gate_forward"
              a.Pv_prevv.Arbiter.gate_forward;
            Metrics.add m "scheme.prevv.arbiter.gate_wait"
              a.Pv_prevv.Arbiter.gate_wait);
      }
  | Oracle ->
      (* walked now, before the run mutates [env.mem] *)
      let prescience =
        Prescience.walk env.kernel env.info env.schedule env.layout env.mem
      in
      let t, memif =
        Oracle.create_full ~trace:env.trace portmap env.mem ~prescience
      in
      {
        memif;
        record_metrics =
          (fun m ->
            Metrics.add m "scheme.oracle.waits" (Oracle.waits t);
            Metrics.add m "scheme.oracle.coincidences" (Oracle.coincidences t);
            Metrics.add m "scheme.oracle.forwards" (Oracle.forwards t);
            if Oracle.degraded t then Metrics.incr m "scheme.oracle.degraded");
      }
  | Serial ->
      let t, memif =
        Serial.create_full ~trace:env.trace portmap
          ~n_seq:(Pv_frontend.Trace.length env.schedule)
          env.mem
      in
      {
        memif;
        record_metrics =
          (fun m ->
            Metrics.add m "scheme.serial.serialized" (Serial.serialized t));
      }

let of_disambiguation dis : t =
  (module struct
    let name = to_string dis
    let description = description_of dis
    let config = dis
    let fingerprint = fingerprint_of dis
    let elaboration = elaboration_of dis
    let make env = make_backend dis env
  end)

(* ---- registry: one fixed list of families, in [all]'s order ---- *)

type family = {
  f_name : string;
  f_doc : string;
  f_parse : string -> disambiguation option;
  f_defaults : disambiguation list;
}

let exact name value s = if s = name then Some value else None

let parse_prevv s =
  let pfx = "prevv" in
  let n = String.length pfx in
  if String.length s < n || String.sub s 0 n <> pfx then None
  else
    let rest = String.sub s n (String.length s - n) in
    if rest = "" then Some (prevv 16)
    else
      match int_of_string_opt rest with
      | Some d when d >= 1 -> Some (prevv d)
      | _ -> None

let registry =
  [
    {
      f_name = "dynamatic";
      f_doc = "Dynamatic LSQ baseline";
      f_parse =
        (fun s ->
          if s = "dynamatic" || s = "plain-lsq" then Some plain_lsq else None);
      f_defaults = [ plain_lsq ];
    };
    {
      f_name = "fast-lsq";
      f_doc = "speculative-allocation LSQ";
      f_parse = exact "fast-lsq" fast_lsq;
      f_defaults = [ fast_lsq ];
    };
    {
      f_name = "prevv";
      f_doc = "PreVV at a named depth (prevv16, prevv64, ...)";
      f_parse = parse_prevv;
      f_defaults = [ prevv 16; prevv 64 ];
    };
    {
      f_name = "oracle";
      f_doc = "prescient lower bound";
      f_parse = exact "oracle" oracle;
      f_defaults = [ oracle ];
    };
    {
      f_name = "serial";
      f_doc = "serializing upper bound";
      f_parse = exact "serial" serial;
      f_defaults = [ serial ];
    };
  ]

let families () = registry

let all () =
  List.concat_map (fun f -> List.map of_disambiguation f.f_defaults) registry

let of_string s =
  match List.find_map (fun f -> f.f_parse s) registry with
  | Some dis -> Ok dis
  | None ->
      let known =
        all () |> List.map (fun (module M : S) -> M.name) |> String.concat ", "
      in
      Error (Printf.sprintf "unknown backend %S (known: %s)" s known)
