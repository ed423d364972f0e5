(** FPGA primitive vocabulary for structural elaboration (7-series flavour,
    matching the paper's xc7k160t target).

    DSP slices are instantiated for multipliers but, like the paper, never
    reported in the tables: "the use of DSP is not evaluated, as neither
    LSQ nor PreVV utilizes DSP". *)

type prim =
  | Lut of int  (** k-input look-up table, 1 <= k <= 6 *)
  | Lutram of int
      (** distributed RAM/SRL bank, 32 entries x [bits] wide; each bit
          occupies one LUT of fabric (RAM32X1S) *)
  | Ff  (** flip-flop *)
  | Carry4  (** carry chain slice (4 bits) *)
  | Muxf  (** dedicated MUXF7/F8 *)
  | Dsp  (** DSP48 slice *)
  | Bram  (** block RAM (the kernels' arrays; not in Table I) *)

(** [count] primitives of one kind inside a component, under a static leaf
    name such as ["carry"] or ["cam"]; [""] names the component itself. *)
type part = { leaf : string; prim : prim; count : int }

(** Fig. 1's two-way split: datapath + memory controller, or the
    disambiguation logic (LSQ, PreVV, serialiser, squash network). *)
type region = Datapath | Queue

(** Where a block sits in the hierarchy.  The name is only joined when a
    consumer asks for it ({!path}). *)
type scope =
  | Node of string * int  (** dataflow node [label], [nid]: ["dp/label_nid"] *)
  | Level of string * int * int
      (** level [k] of a fused loop generator: ["dp/label_nid/lvlk"] *)
  | Macro of string * int option
      (** memory-subsystem macro: ["mem/name"], or ["mem/namei"] *)

type block = { scope : scope; region : region; parts : part list }
type t = block list

(** Aggregate counts in Table-I categories; LUT-RAM bits count as LUT
    fabric, as Vivado reports them. *)
type totals = {
  luts : int;
  ffs : int;
  muxes : int;  (** dedicated MUXF resources *)
  carries : int;
  dsps : int;
  brams : int;
}

val zero : totals

(** [add acc parts] adds [parts] to [acc]. *)
val add : totals -> part list -> totals

val totals : t -> totals

(** Running totals that a fold adds parts into in place, allocating
    nothing per part; {!totals}, {!add} and {!group_totals} count through
    one. *)
type tally

(** A fresh tally at {!zero}. *)
val tally : unit -> tally

(** [tally_add t parts] adds [parts] to [t]. *)
val tally_add : tally -> part list -> unit

(** [tally_scaled t k x] adds [k] times [x] to [t]. *)
val tally_scaled : tally -> int -> totals -> unit

(** The totals counted so far. *)
val tallied : tally -> totals

(** A scope's hierarchical name, e.g. ["mem/lsq0"]. *)
val scope_name : scope -> string

(** [path (scope_name s) p] is the instance name, e.g. ["mem/lsq0/cam"]. *)
val path : string -> part -> string

val pp_totals : Format.formatter -> totals -> unit

(** Aggregate per hierarchy prefix (paths cut after [depth] segments),
    sorted by descending LUT count — finer-grained breakdowns than
    Fig. 1's two-way split.
    @raise Invalid_argument if [depth < 1]. *)
val group_totals : ?depth:int -> t -> (string * totals) list

(** Vivado-style primitive name (LUT4, FDRE, CARRY4, ...). *)
val prim_name : prim -> string
