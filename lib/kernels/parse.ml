(** A parser for the kernel mini-language, accepting the C-like surface
    syntax the paper's listings use (Fig. 2):

    {v
    // kernel polyn_mult
    int a[48]; int b[48]; int c[95];
    const int N = 48;
    for (i = 0; i < N; ++i) {
      for (j = 0; j < N; ++j) {
        c[i+j] = c[i+j] + a[i]*b[j];
      }
    }
    v}

    Also accepted: [+=]/[-=] sugar on stores, [if (cond) { ... } else
    { ... }] with store-only bodies, comments ([// ...] and [/* ... */]),
    and the comparison/arithmetic operators of {!Ast.expr}.  The grammar is
    exactly what {!Ast.pp_kernel} prints, so pretty-printing round-trips. *)

type error = { line : int; col : int; message : string }

let pp_error ppf e =
  Format.fprintf ppf "parse error at %d:%d: %s" e.line e.col e.message

exception Error of error

(* --- lexer ----------------------------------------------------------------- *)

type token =
  | INT of int
  | IDENT of string
  | KW_FOR
  | KW_IF
  | KW_ELSE
  | KW_INT
  | KW_CONST
  | LPAREN
  | RPAREN
  | LBRACE
  | RBRACE
  | LBRACKET
  | RBRACKET
  | SEMI
  | COMMA
  | ASSIGN  (** = *)
  | PLUS_ASSIGN
  | MINUS_ASSIGN
  | PLUS
  | MINUS
  | STAR
  | SLASH
  | PERCENT
  | AMP
  | BAR
  | CARET
  | SHL
  | SHR
  | LT
  | LE
  | GT
  | GE
  | EQ
  | NE
  | PLUSPLUS
  | EOF

type lexer = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable bol : int;  (** offset of the start of the current line *)
}

let fail lx message =
  raise (Error { line = lx.line; col = lx.pos - lx.bol + 1; message })

let peek_char lx = if lx.pos < String.length lx.src then Some lx.src.[lx.pos] else None

let advance lx =
  (match peek_char lx with
  | Some '\n' ->
      lx.line <- lx.line + 1;
      lx.bol <- lx.pos + 1
  | _ -> ());
  lx.pos <- lx.pos + 1

let rec skip_ws lx =
  match peek_char lx with
  | Some (' ' | '\t' | '\r' | '\n') ->
      advance lx;
      skip_ws lx
  | Some '/' when lx.pos + 1 < String.length lx.src -> (
      match lx.src.[lx.pos + 1] with
      | '/' ->
          while peek_char lx <> None && peek_char lx <> Some '\n' do
            advance lx
          done;
          skip_ws lx
      | '*' ->
          advance lx;
          advance lx;
          let rec go () =
            match peek_char lx with
            | None -> fail lx "unterminated comment"
            | Some '*' when lx.pos + 1 < String.length lx.src && lx.src.[lx.pos + 1] = '/' ->
                advance lx;
                advance lx
            | Some _ ->
                advance lx;
                go ()
          in
          go ();
          skip_ws lx
      | _ -> ())
  | _ -> ()

let is_digit c = c >= '0' && c <= '9'
let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident c = is_ident_start c || is_digit c

let next_token lx : token =
  skip_ws lx;
  match peek_char lx with
  | None -> EOF
  | Some c when is_digit c ->
      let start = lx.pos in
      while (match peek_char lx with Some d -> is_digit d | None -> false) do
        advance lx
      done;
      INT (int_of_string (String.sub lx.src start (lx.pos - start)))
  | Some c when is_ident_start c -> (
      let start = lx.pos in
      while (match peek_char lx with Some d -> is_ident d | None -> false) do
        advance lx
      done;
      match String.sub lx.src start (lx.pos - start) with
      | "for" -> KW_FOR
      | "if" -> KW_IF
      | "else" -> KW_ELSE
      | "int" -> KW_INT
      | "const" -> KW_CONST
      | "unsigned" -> KW_INT  (* the paper writes `unsigned i` *)
      | id -> IDENT id)
  | Some c ->
      let two what tok1 tok2 =
        advance lx;
        if peek_char lx = Some what then begin
          advance lx;
          tok2
        end
        else tok1
      in
      (match c with
      | '(' -> advance lx; LPAREN
      | ')' -> advance lx; RPAREN
      | '{' -> advance lx; LBRACE
      | '}' -> advance lx; RBRACE
      | '[' -> advance lx; LBRACKET
      | ']' -> advance lx; RBRACKET
      | ';' -> advance lx; SEMI
      | ',' -> advance lx; COMMA
      | '*' -> advance lx; STAR
      | '/' -> advance lx; SLASH
      | '%' -> advance lx; PERCENT
      | '&' -> advance lx; AMP
      | '|' -> advance lx; BAR
      | '^' -> advance lx; CARET
      | '+' -> (
          advance lx;
          match peek_char lx with
          | Some '+' -> advance lx; PLUSPLUS
          | Some '=' -> advance lx; PLUS_ASSIGN
          | _ -> PLUS)
      | '-' -> two '=' MINUS MINUS_ASSIGN
      | '=' -> two '=' ASSIGN EQ
      | '!' ->
          advance lx;
          if peek_char lx = Some '=' then begin advance lx; NE end
          else fail lx "expected '=' after '!'"
      | '<' -> (
          advance lx;
          match peek_char lx with
          | Some '=' -> advance lx; LE
          | Some '<' -> advance lx; SHL
          | _ -> LT)
      | '>' -> (
          advance lx;
          match peek_char lx with
          | Some '=' -> advance lx; GE
          | Some '>' -> advance lx; SHR
          | _ -> GT)
      | c -> fail lx (Printf.sprintf "unexpected character %C" c))

(* --- parser ----------------------------------------------------------------- *)

type parser_state = { lx : lexer; mutable tok : token }

let bump p = p.tok <- next_token p.lx
let perr p message = fail p.lx message

let expect p tok what =
  if p.tok = tok then bump p else perr p (Printf.sprintf "expected %s" what)

let ident p =
  match p.tok with
  | IDENT s ->
      bump p;
      s
  | _ -> perr p "expected identifier"

let int_lit p =
  match p.tok with
  | INT n ->
      bump p;
      n
  | _ -> perr p "expected integer literal"

(* expression grammar, loosest binding first:
   cmp     := add, optionally followed by one comparison operator and add
   add     := mul chained with +, -, bitwise-or, xor
   mul     := unary chained with star, /, %%, &, shifts
   unary   := - unary, or primary
   primary := INT, IDENT, IDENT [ cmp ], call, or ( cmp )
   call    := min ( cmp , cmp ), max ( cmp , cmp ), not ( cmp ), lnot ( cmp ) *)
let rec parse_cmp p : Ast.expr =
  let lhs = parse_add p in
  let op =
    match p.tok with
    | EQ -> Some Pv_dataflow.Types.Eq
    | NE -> Some Pv_dataflow.Types.Ne
    | LT -> Some Pv_dataflow.Types.Lt
    | LE -> Some Pv_dataflow.Types.Le
    | GT -> Some Pv_dataflow.Types.Gt
    | GE -> Some Pv_dataflow.Types.Ge
    | _ -> None
  in
  match op with
  | Some op ->
      bump p;
      Ast.Bin (op, lhs, parse_add p)
  | None -> lhs

and parse_add p =
  let rec go lhs =
    match p.tok with
    | PLUS ->
        bump p;
        go (Ast.Bin (Pv_dataflow.Types.Add, lhs, parse_mul p))
    | MINUS ->
        bump p;
        go (Ast.Bin (Pv_dataflow.Types.Sub, lhs, parse_mul p))
    | BAR ->
        bump p;
        go (Ast.Bin (Pv_dataflow.Types.Or, lhs, parse_mul p))
    | CARET ->
        bump p;
        go (Ast.Bin (Pv_dataflow.Types.Xor, lhs, parse_mul p))
    | _ -> lhs
  in
  go (parse_mul p)

and parse_mul p =
  let rec go lhs =
    match p.tok with
    | STAR ->
        bump p;
        go (Ast.Bin (Pv_dataflow.Types.Mul, lhs, parse_unary p))
    | SLASH ->
        bump p;
        go (Ast.Bin (Pv_dataflow.Types.Div, lhs, parse_unary p))
    | PERCENT ->
        bump p;
        go (Ast.Bin (Pv_dataflow.Types.Rem, lhs, parse_unary p))
    | AMP ->
        bump p;
        go (Ast.Bin (Pv_dataflow.Types.And, lhs, parse_unary p))
    | SHL ->
        bump p;
        go (Ast.Bin (Pv_dataflow.Types.Shl, lhs, parse_unary p))
    | SHR ->
        bump p;
        go (Ast.Bin (Pv_dataflow.Types.Shr, lhs, parse_unary p))
    | _ -> lhs
  in
  go (parse_unary p)

and parse_unary p =
  match p.tok with
  | MINUS ->
      bump p;
      Ast.Un (Pv_dataflow.Types.Neg, parse_unary p)
  | _ -> parse_primary p

and parse_primary p =
  match p.tok with
  | INT n ->
      bump p;
      Ast.Int n
  | IDENT name -> (
      bump p;
      match p.tok with
      | LBRACKET ->
          bump p;
          let ix = parse_cmp p in
          expect p RBRACKET "']'";
          Ast.Idx (name, ix)
      | LPAREN -> parse_call p name
      | _ -> Ast.Var name)
  | LPAREN ->
      bump p;
      let e = parse_cmp p in
      expect p RPAREN "')'";
      e
  | _ -> perr p "expected expression"

(* the operators without a C symbol, in call form *)
and parse_call p name =
  let module T = Pv_dataflow.Types in
  let arity, build =
    match name with
    | "min" -> (2, fun a -> Ast.Bin (T.Min, a.(0), a.(1)))
    | "max" -> (2, fun a -> Ast.Bin (T.Max, a.(0), a.(1)))
    | "not" -> (1, fun a -> Ast.Un (T.Not, a.(0)))
    | "lnot" -> (1, fun a -> Ast.Un (T.Lnot, a.(0)))
    | _ -> perr p (Printf.sprintf "unknown function %s" name)
  in
  bump p;
  let args = Array.make arity (Ast.Int 0) in
  for i = 0 to arity - 1 do
    if i > 0 then expect p COMMA "','";
    args.(i) <- parse_cmp p
  done;
  expect p RPAREN "')'";
  build args

(* statements *)
let rec parse_stmt p : Ast.stmt =
  match p.tok with
  | KW_FOR -> parse_for p
  | KW_IF -> parse_if p
  | IDENT _ -> parse_store p
  | _ -> perr p "expected statement"

and parse_for p =
  expect p KW_FOR "'for'";
  expect p LPAREN "'('";
  (* optional induction-variable type *)
  (match p.tok with KW_INT -> bump p | _ -> ());
  let var = ident p in
  expect p ASSIGN "'='";
  let lo = parse_cmp p in
  expect p SEMI "';'";
  (* the bound must read `var < hi` *)
  let bvar = ident p in
  if bvar <> var then perr p "loop bound must test the induction variable";
  expect p LT "'<'";
  let hi = parse_cmp p in
  expect p SEMI "';'";
  (* ++var or var++ *)
  (match p.tok with
  | PLUSPLUS ->
      bump p;
      let v2 = ident p in
      if v2 <> var then perr p "increment must name the induction variable"
  | IDENT v2 when v2 = var ->
      bump p;
      expect p PLUSPLUS "'++'"
  | _ -> perr p "expected '++var' or 'var++'");
  expect p RPAREN "')'";
  Ast.For { var; lo; hi; body = parse_block p }

and parse_if p =
  expect p KW_IF "'if'";
  expect p LPAREN "'('";
  let cond = parse_cmp p in
  expect p RPAREN "')'";
  let then_ = parse_block p in
  let else_ =
    match p.tok with
    | KW_ELSE ->
        bump p;
        parse_block p
    | _ -> []
  in
  Ast.If (cond, then_, else_)

and parse_store p =
  let arr = ident p in
  expect p LBRACKET "'['";
  let ix = parse_cmp p in
  expect p RBRACKET "']'";
  let stmt =
    match p.tok with
    | ASSIGN ->
        bump p;
        Ast.Store (arr, ix, parse_cmp p)
    | PLUS_ASSIGN ->
        bump p;
        Ast.Store (arr, ix, Ast.Bin (Pv_dataflow.Types.Add, Ast.Idx (arr, ix), parse_cmp p))
    | MINUS_ASSIGN ->
        bump p;
        Ast.Store (arr, ix, Ast.Bin (Pv_dataflow.Types.Sub, Ast.Idx (arr, ix), parse_cmp p))
    | _ -> perr p "expected '=', '+=' or '-='"
  in
  expect p SEMI "';'";
  stmt

and parse_block p : Ast.stmt list =
  expect p LBRACE "'{'";
  let rec go acc =
    match p.tok with
    | RBRACE ->
        bump p;
        List.rev acc
    | _ -> go (parse_stmt p :: acc)
  in
  go []

(* declarations: `int name[len];` and `const int name = v;` *)
let parse_kernel_body p ~name =
  let arrays = ref [] and params = ref [] in
  let rec decls () =
    match p.tok with
    | KW_INT ->
        bump p;
        let id = ident p in
        expect p LBRACKET "'['";
        let len = int_lit p in
        expect p RBRACKET "']'";
        expect p SEMI "';'";
        arrays := (id, len) :: !arrays;
        decls ()
    | KW_CONST ->
        bump p;
        expect p KW_INT "'int'";
        let id = ident p in
        expect p ASSIGN "'='";
        let v =
          match p.tok with
          | MINUS ->
              bump p;
              -int_lit p
          | _ -> int_lit p
        in
        expect p SEMI "';'";
        params := (id, v) :: !params;
        decls ()
    | _ -> ()
  in
  decls ();
  let rec stmts acc =
    match p.tok with EOF -> List.rev acc | _ -> stmts (parse_stmt p :: acc)
  in
  {
    Ast.name;
    arrays = List.rev !arrays;
    params = List.rev !params;
    body = stmts [];
  }

(* the optional `// kernel NAME` header is honoured before lexing strips
   comments *)
let header_name src =
  let rec find_line i =
    if i >= String.length src then None
    else
      let eol = try String.index_from src i '\n' with Not_found -> String.length src in
      let line = String.trim (String.sub src i (eol - i)) in
      if line = "" then find_line (eol + 1)
      else if String.length line > 10 && String.sub line 0 10 = "// kernel " then
        Some (String.trim (String.sub line 10 (String.length line - 10)))
      else None
  in
  find_line 0

(** Parse a kernel from source text.  The kernel name comes from the
    [// kernel NAME] header when present, else [name]. *)
let kernel ?(name = "kernel") (src : string) : (Ast.kernel, error) result =
  let lx = { src; pos = 0; line = 1; bol = 0 } in
  let p = { lx; tok = EOF } in
  try
    bump p;
    let name = match header_name src with Some n -> n | None -> name in
    Ok (parse_kernel_body p ~name)
  with Error e -> Result.Error e

let from_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let src = really_input_string ic n in
  close_in ic;
  kernel ~name:Filename.(remove_extension (basename path)) src
