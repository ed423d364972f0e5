(** The kernel mini-language.

    This stands in for the C/C++ inputs the paper feeds to Dynamatic: loop
    nests over integer arrays with optional conditionals.  Arrays are flat;
    multi-dimensional accesses are written with explicit affine flattening
    (row-major), which is what the LLVM front-end would produce anyway. *)

type binop = Pv_dataflow.Types.binop
type unop = Pv_dataflow.Types.unop

type expr =
  | Int of int
  | Var of string  (** induction variable or kernel parameter *)
  | Idx of string * expr  (** [a[e]] *)
  | Bin of binop * expr * expr
  | Un of unop * expr

type stmt =
  | Store of string * expr * expr  (** [a[e1] := e2] *)
  | For of { var : string; lo : expr; hi : expr; body : stmt list }
      (** [for var = lo while var < hi] *)
  | If of expr * stmt list * stmt list
      (** conditional whose branches may contain only stores *)

type kernel = {
  name : string;
  arrays : (string * int) list;  (** array name, length in words *)
  params : (string * int) list;  (** compile-time scalar parameters *)
  body : stmt list;
}

(** {1 Convenience constructors}

    These shadow the integer operators with expression builders; open
    {!Ast} locally ([Ast.(...)]) when using them. *)

val ( + ) : expr -> expr -> expr
val ( - ) : expr -> expr -> expr
val ( * ) : expr -> expr -> expr
val ( / ) : expr -> expr -> expr
val ( % ) : expr -> expr -> expr
val ( < ) : expr -> expr -> expr
val ( > ) : expr -> expr -> expr
val ( = ) : expr -> expr -> expr
val ( <> ) : expr -> expr -> expr
val ( land ) : expr -> expr -> expr
val i : int -> expr
val v : string -> expr
val idx : string -> expr -> expr
val store : string -> expr -> expr -> stmt
val for_ : string -> expr -> expr -> stmt list -> stmt

(** {1 Queries} *)

(** Static memory accesses of an expression, as (array, index expr) loads
    prepended to [acc]. *)
val expr_loads : (string * expr) list -> expr -> (string * expr) list

(** {1 Pretty printing}

    The printed form uses C spellings and parses back with {!Parse}. *)

val pp_expr : Format.formatter -> expr -> unit
val pp_stmt : int -> Format.formatter -> stmt -> unit
val pp_body : int -> Format.formatter -> stmt list -> unit
val pp_kernel : Format.formatter -> kernel -> unit
