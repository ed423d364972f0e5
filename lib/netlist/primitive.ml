(** FPGA primitive vocabulary for structural elaboration (7-series flavour,
    matching the paper's xc7k160t target).

    DSP slices are instantiated for multipliers but, like the paper, never
    reported: "the use of DSP is not evaluated, as neither LSQ nor PreVV
    utilizes DSP". *)

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
    name; [""] names the component itself. *)
type part = { leaf : string; prim : prim; count : int }

(** Fig. 1's split: datapath + controller, or disambiguation logic. *)
type region = Datapath | Queue

type scope =
  | Node of string * int  (** "dp/<label>_<nid>" *)
  | Level of string * int * int  (** "dp/<label>_<nid>/lvl<k>" *)
  | Macro of string * int option  (** "mem/<name>" or "mem/<name><i>" *)

type block = { scope : scope; region : region; parts : part list }
type t = block list

(** Aggregate counts in Table-I categories.  A [Lutram] occupies LUT fabric
    and is reported as LUTs, as Vivado does. *)
type totals = {
  luts : int;
  ffs : int;
  muxes : int;  (** dedicated MUXF resources *)
  carries : int;
  dsps : int;
  brams : int;
}

let zero = { luts = 0; ffs = 0; muxes = 0; carries = 0; dsps = 0; brams = 0 }

let add_part acc { prim; count; _ } =
  match prim with
  | Lut _ -> { acc with luts = acc.luts + count }
  | Lutram bits -> { acc with luts = acc.luts + (count * bits) }
  | Ff -> { acc with ffs = acc.ffs + count }
  | Muxf -> { acc with muxes = acc.muxes + count }
  | Carry4 -> { acc with carries = acc.carries + count }
  | Dsp -> { acc with dsps = acc.dsps + count }
  | Bram -> { acc with brams = acc.brams + count }

let add acc parts = List.fold_left add_part acc parts
let totals (nl : t) = List.fold_left (fun acc b -> add acc b.parts) zero nl

(* names are joined here, for emission and grouping only *)
let scope_name = function
  | Node (label, nid) -> Printf.sprintf "dp/%s_%d" label nid
  | Level (label, nid, k) -> Printf.sprintf "dp/%s_%d/lvl%d" label nid k
  | Macro (name, None) -> "mem/" ^ name
  | Macro (name, Some i) -> Printf.sprintf "mem/%s%d" name i

let path scope p = if p.leaf = "" then scope else scope ^ "/" ^ p.leaf

let pp_totals ppf t =
  Format.fprintf ppf "LUT=%d FF=%d MUXF=%d CARRY4=%d DSP=%d BRAM=%d" t.luts
    t.ffs t.muxes t.carries t.dsps t.brams

(** Aggregate per hierarchy prefix: paths are cut after [depth] '/'-
    separated segments and totals accumulated per prefix, in descending
    LUT order — the data for area breakdowns finer than Fig. 1's
    two-way split. *)
let group_totals ?(depth = 1) (nl : t) : (string * totals) list =
  if depth < 1 then invalid_arg "Primitive.group_totals: depth < 1";
  let prefix path =
    let rec cut i seen =
      if seen = depth || i >= String.length path then
        String.sub path 0 i
      else cut (i + 1) (if path.[i] = '/' then seen + 1 else seen)
    in
    let p = cut 0 0 in
    if String.length p > 0 && p.[String.length p - 1] = '/' then
      String.sub p 0 (String.length p - 1)
    else p
  in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun b ->
      let scope = scope_name b.scope in
      List.iter
        (fun p ->
          let key = prefix (path scope p) in
          let cur = Option.value ~default:zero (Hashtbl.find_opt tbl key) in
          Hashtbl.replace tbl key (add_part cur p))
        b.parts)
    nl;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (_, a) (_, b) -> compare b.luts a.luts)

let prim_name = function
  | Lut k -> Printf.sprintf "LUT%d" k
  | Lutram bits -> Printf.sprintf "RAM32X%d" bits
  | Ff -> "FDRE"
  | Carry4 -> "CARRY4"
  | Muxf -> "MUXF7"
  | Dsp -> "DSP48E1"
  | Bram -> "RAMB36E1"
