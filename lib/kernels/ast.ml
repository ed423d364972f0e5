(** The kernel mini-language.

    This stands in for the C/C++ inputs the paper feeds to Dynamatic: loop
    nests over integer arrays with optional conditionals.  Arrays are flat;
    multi-dimensional accesses are written with explicit affine flattening
    (row-major), exactly what the LLVM front-end would produce. *)

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
      (** [for var = lo to hi-1] *)
  | If of expr * stmt list * stmt list

type kernel = {
  name : string;
  arrays : (string * int) list;  (** array name, length in words *)
  params : (string * int) list;  (** compile-time scalar parameters *)
  body : stmt list;
}

(* --- convenience constructors (used heavily by kernel definitions) ------ *)

let ( + ) a b = Bin (Pv_dataflow.Types.Add, a, b)
let ( - ) a b = Bin (Pv_dataflow.Types.Sub, a, b)
let ( * ) a b = Bin (Pv_dataflow.Types.Mul, a, b)
let ( / ) a b = Bin (Pv_dataflow.Types.Div, a, b)
let ( % ) a b = Bin (Pv_dataflow.Types.Rem, a, b)
let ( < ) a b = Bin (Pv_dataflow.Types.Lt, a, b)
let ( > ) a b = Bin (Pv_dataflow.Types.Gt, a, b)
let ( = ) a b = Bin (Pv_dataflow.Types.Eq, a, b)
let ( <> ) a b = Bin (Pv_dataflow.Types.Ne, a, b)
let ( land ) a b = Bin (Pv_dataflow.Types.And, a, b)
let i n = Int n
let v s = Var s
let idx a e = Idx (a, e)
let store a e1 e2 = Store (a, e1, e2)
let for_ var lo hi body = For { var; lo; hi; body }

(* --- free variables / accesses ------------------------------------------ *)

(** Static memory accesses of an expression: (array, index expr) loads. *)
let rec expr_loads acc = function
  | Int _ | Var _ -> acc
  | Idx (a, e) -> expr_loads ((a, e) :: acc) e
  | Un (_, e) -> expr_loads acc e
  | Bin (_, a, b) -> expr_loads (expr_loads acc a) b

(* --- pretty printing ----------------------------------------------------- *)

(* C-style operator spellings, so the printed form parses back (see
   {!Parse}) *)
let symbol_of_binop (b : binop) =
  match b with
  | Pv_dataflow.Types.Add -> "+"
  | Pv_dataflow.Types.Sub -> "-"
  | Pv_dataflow.Types.Mul | Pv_dataflow.Types.Mulc -> "*"
  | Pv_dataflow.Types.Div -> "/"
  | Pv_dataflow.Types.Rem -> "%"
  | Pv_dataflow.Types.And -> "&"
  | Pv_dataflow.Types.Or -> "|"
  | Pv_dataflow.Types.Xor -> "^"
  | Pv_dataflow.Types.Shl -> "<<"
  | Pv_dataflow.Types.Shr -> ">>"
  | Pv_dataflow.Types.Lt -> "<"
  | Pv_dataflow.Types.Le -> "<="
  | Pv_dataflow.Types.Gt -> ">"
  | Pv_dataflow.Types.Ge -> ">="
  | Pv_dataflow.Types.Eq -> "=="
  | Pv_dataflow.Types.Ne -> "!="
  | Pv_dataflow.Types.Min -> "min"
  | Pv_dataflow.Types.Max -> "max"

let rec pp_expr ppf = function
  | Int n -> Format.fprintf ppf "%d" n
  | Var s -> Format.pp_print_string ppf s
  | Idx (a, e) -> Format.fprintf ppf "%s[%a]" a pp_expr e
  | Un (Pv_dataflow.Types.Neg, e) -> Format.fprintf ppf "(-%a)" pp_expr e
  | Un (u, e) ->
      Format.fprintf ppf "%s(%a)" (Pv_dataflow.Types.string_of_unop u) pp_expr e
  | Bin (((Pv_dataflow.Types.Min | Pv_dataflow.Types.Max) as b), x, y) ->
      Format.fprintf ppf "%s(%a, %a)" (symbol_of_binop b) pp_expr x pp_expr y
  | Bin (b, x, y) ->
      Format.fprintf ppf "(%a %s %a)" pp_expr x (symbol_of_binop b) pp_expr y

let rec pp_stmt ind ppf stmt =
  let pad = String.make ind ' ' in
  match stmt with
  | Store (a, e1, e2) ->
      Format.fprintf ppf "%s%s[%a] = %a;" pad a pp_expr e1 pp_expr e2
  | For { var; lo; hi; body } ->
      Format.fprintf ppf "%sfor (%s = %a; %s < %a; ++%s) {@\n%a@\n%s}" pad var
        pp_expr lo var pp_expr hi var (pp_body Stdlib.(ind + 2)) body pad
  | If (c, t, e) ->
      Format.fprintf ppf "%sif (%a) {@\n%a@\n%s}" pad pp_expr c
        (pp_body Stdlib.(ind + 2)) t pad;
      if Stdlib.(e <> []) then
        Format.fprintf ppf " else {@\n%a@\n%s}" (pp_body Stdlib.(ind + 2)) e pad

and pp_body ind ppf body =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.fprintf ppf "@\n")
    (pp_stmt ind) ppf body

let pp_kernel ppf k =
  Format.fprintf ppf "// kernel %s@\n" k.name;
  List.iter (fun (a, n) -> Format.fprintf ppf "int %s[%d];@\n" a n) k.arrays;
  List.iter (fun (p, n) -> Format.fprintf ppf "const int %s = %d;@\n" p n) k.params;
  pp_body 0 ppf k.body
