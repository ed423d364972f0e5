(** FPGA device capacities and utilisation — the paper's motivation: the
    LSQ's area makes dynamically scheduled circuits "incompatible with
    edge devices that have limited resources" (Sec. I). *)

type t = {
  name : string;
  luts : int;
  ffs : int;
  brams : int;
  dsps : int;
}

(** The paper's evaluation target (Kintex-7 160T). *)
val xc7k160t : t

(** A representative edge-class part (Artix-7 35T). *)
val xc7a35t : t

(** xc7k160t, a small Zynq SoC fabric (xc7z020) and xc7a35t, in that
    order. *)
val devices : t list

type utilisation = {
  device : t;
  lut_pct : float;
  ff_pct : float;
  fits : bool;
}

val utilisation : t -> Report.t -> utilisation

(** How many copies of the circuit fit on the device — the saved area
    becomes extra parallel kernel instances. *)
val copies_that_fit : t -> Report.t -> int

val pp_utilisation : Format.formatter -> utilisation -> unit
