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

(* the one place a primitive is mapped to its Table-I category; mutable, so
   that folds over many parts add each in place *)
type tally = {
  mutable t_luts : int;
  mutable t_ffs : int;
  mutable t_muxes : int;
  mutable t_carries : int;
  mutable t_dsps : int;
  mutable t_brams : int;
}

let tally_of (t : totals) =
  {
    t_luts = t.luts;
    t_ffs = t.ffs;
    t_muxes = t.muxes;
    t_carries = t.carries;
    t_dsps = t.dsps;
    t_brams = t.brams;
  }

let tally () = tally_of zero

let tally_part t { prim; count; _ } =
  match prim with
  | Lut _ -> t.t_luts <- t.t_luts + count
  | Lutram bits -> t.t_luts <- t.t_luts + (count * bits)
  | Ff -> t.t_ffs <- t.t_ffs + count
  | Muxf -> t.t_muxes <- t.t_muxes + count
  | Carry4 -> t.t_carries <- t.t_carries + count
  | Dsp -> t.t_dsps <- t.t_dsps + count
  | Bram -> t.t_brams <- t.t_brams + count

let rec tally_add t = function
  | [] -> ()
  | p :: rest ->
      tally_part t p;
      tally_add t rest

let tally_scaled t k (x : totals) =
  t.t_luts <- t.t_luts + (k * x.luts);
  t.t_ffs <- t.t_ffs + (k * x.ffs);
  t.t_muxes <- t.t_muxes + (k * x.muxes);
  t.t_carries <- t.t_carries + (k * x.carries);
  t.t_dsps <- t.t_dsps + (k * x.dsps);
  t.t_brams <- t.t_brams + (k * x.brams)

let tallied t =
  {
    luts = t.t_luts;
    ffs = t.t_ffs;
    muxes = t.t_muxes;
    carries = t.t_carries;
    dsps = t.t_dsps;
    brams = t.t_brams;
  }

let add acc parts =
  let t = tally_of acc in
  tally_add t parts;
  tallied t

let totals (nl : t) =
  let t = tally () in
  List.iter (fun b -> tally_add t b.parts) nl;
  tallied t

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
          let t =
            match Hashtbl.find_opt tbl key with
            | Some t -> t
            | None ->
                let t = tally () in
                Hashtbl.add tbl key t;
                t
          in
          tally_part t p)
        b.parts)
    nl;
  Hashtbl.fold (fun k t acc -> (k, tallied t) :: acc) tbl []
  |> List.sort (fun (_, a) (_, b) -> compare b.luts a.luts)

let prim_name = function
  | Lut k -> Printf.sprintf "LUT%d" k
  | Lutram bits -> Printf.sprintf "RAM32X%d" bits
  | Ff -> "FDRE"
  | Carry4 -> "CARRY4"
  | Muxf -> "MUXF7"
  | Dsp -> "DSP48E1"
  | Bram -> "RAMB36E1"
