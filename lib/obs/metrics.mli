(** Metrics registry: named counters, gauges, and fixed-bucket histograms.

    A registry is a plain mutable value with no locking: the intended
    discipline for parallel code is one registry per domain (workers
    accumulate into their own), then [absorb] the per-domain registries
    into an aggregate on the main domain once the workers have joined.
    Merge semantics: counters add, gauges keep the max, histograms add
    per-bucket counts (bounds must agree).

    Snapshots are plain immutable data ([Marshal]-safe, no closures or
    hashtables) so they can ride inside cached experiment points. *)

type t

(** Fresh empty registry. *)
val create : unit -> t

(** {1 Instruments} *)

(** [incr t name] adds 1 to counter [name], creating it at 0 on first use. *)
val incr : t -> string -> unit

(** [add t name n] adds [n] (must be >= 0) to counter [name]. *)
val add : t -> string -> int -> unit

(** [set_gauge t name v] sets gauge [name] to [v]. *)
val set_gauge : t -> string -> int -> unit

(** [set_gauge_max t name v] sets gauge [name] to [max current v]
    (high-water-mark update). *)
val set_gauge_max : t -> string -> int -> unit

(** [observe t name v] records [v] into histogram [name].  Every
    histogram has the same power-of-4-ish finite buckets, with inclusive
    upper bounds [|0;1;2;4;8;16;32;64;128;256;1024;4096;16384;65536|];
    an implicit overflow bucket catches everything above the last. *)
val observe : t -> string -> int -> unit

(** {1 Reading} *)

val counter_value : t -> string -> int
(** 0 when absent. *)

val gauge_value : t -> string -> int
(** 0 when absent. *)

(** {1 Snapshots and merging} *)

type hist_snap = {
  bounds : int array;  (** finite bucket upper bounds *)
  buckets : int array;  (** length = |bounds| + 1 (last = overflow) *)
  count : int;
  sum : int;
  min_v : int;  (** 0 when count = 0 *)
  max_v : int;  (** 0 when count = 0 *)
}

type snap_entry =
  | S_counter of int
  | S_gauge of int
  | S_hist of hist_snap

type snapshot = (string * snap_entry) list
(** Sorted by name; immutable; [Marshal]-safe. *)

val snapshot : t -> snapshot

(** [absorb t snap] merges [snap] into [t]: counters add, gauges max,
    histograms add bucket counts.  @raise Invalid_argument when a name is
    registered with a different instrument kind or differing histogram
    bounds. *)
val absorb : t -> snapshot -> unit

(** Merge two snapshots with the same semantics as [absorb]. *)
val merge_snapshots : snapshot -> snapshot -> snapshot

(** {1 JSON} *)

(** Deterministic JSON object keyed by metric name; counters and gauges
    become [{"type":"counter","value":n}] / [{"type":"gauge",...}],
    histograms include bounds, buckets, count, sum, min and max. *)
val snapshot_to_json : snapshot -> Json.t

val to_json : t -> Json.t
(** [to_json t = snapshot_to_json (snapshot t)]. *)
