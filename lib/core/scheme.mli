(** Registry of memory-disambiguation schemes as first-class modules.

    Every backend (the Dynamatic LSQ baselines, PreVV, and the oracle /
    serializing reference bounds) is exposed behind one signature {!S}:
    a display name, a config fingerprint for experiment cache keys, a
    netlist-elaboration hint, and [make] over a flat memory returning the
    simulator-facing {!Pv_dataflow.Memif.t} plus a metrics hook.  All
    selection logic in the repo (pipeline, experiment cache, CLI and bench
    parsing, differential harness) goes through this module — it is the
    only place allowed to match on {!disambiguation}. *)

type disambiguation =
  | Plain_lsq of Pv_lsq.Lsq.config  (** Dynamatic baseline [15] *)
  | Fast_lsq of Pv_lsq.Lsq.config  (** fast LSQ allocation [8] *)
  | Prevv of Pv_prevv.Backend.config  (** this paper *)
  | Oracle of Pv_bounds.Oracle.config  (** prescient lower bound *)
  | Serial of Pv_bounds.Serial.config  (** serializing upper bound *)

(** {1 Canonical configurations} *)

val plain_lsq : disambiguation
val fast_lsq : disambiguation

(** PreVV at a paper-named depth ([prevv 16] = "PreVV16"); the simulated
    queue holds {!Pv_prevv.Backend.depth_scale} entries per named unit. *)
val prevv : ?fake_tokens:bool -> int -> disambiguation

val oracle : disambiguation
val serial : disambiguation

(** {1 Instantiation environment} *)

(** What a scheme needs to come alive: the compiled kernel (source,
    dependence analysis with its port map, loop-nest schedule and memory
    layout), the flat memory it mutates in place, a trace sink and a
    profiler.  The oracle walks the kernel over [mem] when it is made, so
    [make] must run before the simulation touches [mem]. *)
type env = {
  kernel : Pv_kernels.Ast.kernel;
  info : Pv_frontend.Depend.info;
  schedule : Pv_frontend.Trace.t;  (** the generator's instance table *)
  layout : Pv_memory.Layout.t;
  mem : int array;
  trace : Pv_obs.Trace.t;
  prof : Pv_obs.Prof.t;
      (** cycle-attribution profiler; the PreVV and LSQ backends feed
          their inner-loop phases ([arbiter_scan], [pq_validate],
          [lsq_cam], [mem_service]) into it when enabled *)
}

val make_env :
  ?trace:Pv_obs.Trace.t ->
  ?prof:Pv_obs.Prof.t ->
  kernel:Pv_kernels.Ast.kernel ->
  info:Pv_frontend.Depend.info ->
  schedule:Pv_frontend.Trace.t ->
  layout:Pv_memory.Layout.t ->
  int array ->
  env

(** A live backend: the simulator-facing interface plus a hook dumping the
    scheme's {e own} counters (namespaced [scheme.<name>.*]) into a metric
    registry after a run. *)
type instance = {
  memif : Pv_dataflow.Memif.t;
  record_metrics : Pv_obs.Metrics.t -> unit;
}

(** {1 The scheme signature} *)

module type S = sig
  val name : string
  (** display / CLI name, e.g. ["prevv16"] *)

  val description : string
  (** one-line summary (used for the README backend table) *)

  val config : disambiguation
  (** the concrete configuration this module wraps *)

  val fingerprint : string
  (** hex digest of the full configuration — the scheme component of
      {!Experiment.cache_key}; distinct configs have distinct prints *)

  val elaboration : Pv_netlist.Elaborate.disambiguation
  (** netlist-elaboration hint for resource/timing reports *)

  val make : env -> instance
end

type t = (module S)

(** Wrap a configuration as a first-class scheme module. *)
val of_disambiguation : disambiguation -> t

(** {1 Registry} *)

(** A scheme family: how to parse its backend names and which canonical
    instances it contributes to {!all}. *)
type family = {
  f_name : string;  (** family key, e.g. ["prevv"] *)
  f_doc : string;
  f_parse : string -> disambiguation option;
      (** parse a full backend name (e.g. ["prevv16"]) *)
  f_defaults : disambiguation list;  (** instances listed by {!all} *)
}

(** Register a family; [Invalid_argument] on a duplicate [f_name]. *)
val register : family -> unit

val lookup : string -> family option
val families : unit -> family list

(** Canonical instances of every registered family, in registration
    order: dynamatic, fast-lsq, prevv16, prevv64, oracle, serial (plus
    anything registered afterwards). *)
val all : unit -> t list

(** {1 Names and fingerprints} *)

(** Parse a backend name via the registry ([Error] lists known names). *)
val of_string : string -> (disambiguation, string) Stdlib.result

(** Canonical name, such that
    [of_string (to_string d) = Ok d] for canonical configs. *)
val to_string : disambiguation -> string

(** [= to_string]; kept as the historical pipeline spelling. *)
val name_of : disambiguation -> string

val fingerprint_of : disambiguation -> string
val elaboration_of : disambiguation -> Pv_netlist.Elaborate.disambiguation
