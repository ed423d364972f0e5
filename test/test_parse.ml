(* Tests for the kernel-language parser: literal programs, the paper's
   Fig. 2 listings, error reporting, and the print-parse round trip. *)

open Pv_kernels

let parse_ok src =
  match Parse.kernel src with
  | Ok k -> k
  | Error e -> Alcotest.failf "unexpected %a" Parse.pp_error e

let parse_err src =
  match Parse.kernel src with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error e -> e

let test_minimal () =
  let k = parse_ok "int a[4];\na[0] = 1;\n" in
  Alcotest.(check string) "default name" "kernel" k.Ast.name;
  Alcotest.(check (list (pair string int))) "arrays" [ ("a", 4) ] k.Ast.arrays;
  match k.Ast.body with
  | [ Ast.Store ("a", Ast.Int 0, Ast.Int 1) ] -> ()
  | _ -> Alcotest.fail "unexpected body"

let test_header_name () =
  let k = parse_ok "// kernel myname\nint a[1];\na[0] = 0;\n" in
  Alcotest.(check string) "header name" "myname" k.Ast.name

let test_fig2a () =
  (* the paper's Fig. 2(a) listing, almost verbatim *)
  let src =
    {|
      int a[64]; int b[64];
      const int A = 3; const int B = 1;
      for (unsigned i = 0; i < 64; ++i) {
        a[b[i]] += A;
        b[i] += B;
      }
    |}
  in
  let k = parse_ok src in
  (* equivalent to the bundled histogram kernel *)
  let init = Workload.default_init (Defs.histogram ~n:64 ()) in
  let mine = Interp.run k ~init in
  let ref_ = Interp.run (Defs.histogram ~n:64 ()) ~init in
  Alcotest.(check (array int)) "same a" (Hashtbl.find ref_ "a") (Hashtbl.find mine "a");
  Alcotest.(check (array int)) "same b" (Hashtbl.find ref_ "b") (Hashtbl.find mine "b")

let test_if_else () =
  let src =
    {|
      int x[8]; int s[8];
      for (i = 0; i < 8; ++i) {
        if (x[i] > 3) { s[i] = 1; } else { s[i] = 0 - 1; }
      }
    |}
  in
  let k = parse_ok src in
  let st = Interp.run k ~init:[ ("x", [| 0; 1; 2; 3; 4; 5; 6; 7 |]) ] in
  Alcotest.(check (array int)) "threshold" [| -1; -1; -1; -1; 1; 1; 1; 1 |]
    (Hashtbl.find st "s")

let test_precedence () =
  let k = parse_ok "int a[4];\na[0] = 1 + 2 * 3;\na[1] = (1 + 2) * 3;\n" in
  let st = Interp.run k ~init:[] in
  let a = Hashtbl.find st "a" in
  Alcotest.(check int) "mul binds tighter" 7 a.(0);
  Alcotest.(check int) "parens override" 9 a.(1)

let test_comments () =
  let k =
    parse_ok
      "/* block\n comment */ int a[2]; // trailing\na[0] = 1; /* mid */ a[1] = 2;"
  in
  Alcotest.(check int) "two stores" 2 (List.length k.Ast.body)

let test_minus_assign_and_unary () =
  let k = parse_ok "int a[2];\na[0] = 10;\na[0] -= 3;\na[1] = -4;\n" in
  let st = Interp.run k ~init:[] in
  let a = Hashtbl.find st "a" in
  Alcotest.(check int) "-=" 7 a.(0);
  Alcotest.(check int) "unary minus" (-4) a.(1)

let test_error_position () =
  let e = parse_err "int a[4];\na[0] = ;\n" in
  Alcotest.(check int) "line" 2 e.Parse.line;
  Alcotest.(check bool) "message mentions expression" true
    (e.Parse.message = "expected expression")

let test_error_bound_var () =
  let e = parse_err "int a[4];\nfor (i = 0; j < 4; ++i) { a[i] = 0; }" in
  Alcotest.(check bool) "bound check" true
    (e.Parse.message = "loop bound must test the induction variable")

(* an if body is one conditional datapath: a loop or a nested if inside it
   is a located parse error (at the end of the offending keyword, like every
   parse error), not a kernel the frontend later rejects *)
let test_error_nested_in_if () =
  let check what src ~line ~col =
    let e = parse_err src in
    Alcotest.(check string) (what ^ " message")
      "an if body may contain only stores" e.Parse.message;
    Alcotest.(check (pair int int)) (what ^ " position") (line, col)
      (e.Parse.line, e.Parse.col)
  in
  check "for in then"
    "int a[4];\nif (a[0] > 0) {\n  for (i = 0; i < 4; ++i) { a[i] = 0; }\n}\n"
    ~line:3 ~col:6;
  check "if in else"
    "int a[4];\nif (a[0] > 0) { a[1] = 1; } else {\n  a[2] = 2;\n\
    \  if (a[3] > 0) { a[3] = 0; }\n}\n"
    ~line:4 ~col:5

(* the printer's output parses back to a semantically identical kernel *)
let roundtrip k =
  let printed = Format.asprintf "%a" Ast.pp_kernel k in
  match Parse.kernel printed with
  | Error e ->
      Alcotest.failf "round trip of %s failed: %a@.%s" k.Ast.name
        Parse.pp_error e printed
  | Ok k' ->
      let init = Workload.default_init k in
      let a = Interp.run k ~init and b = Interp.run k' ~init in
      List.iter
        (fun (name, _) ->
          Alcotest.(check (array int))
            (k.Ast.name ^ "." ^ name)
            (Hashtbl.find a name) (Hashtbl.find b name))
        k.Ast.arrays

let test_roundtrip_bundled () = List.iter roundtrip (Defs.all ())

(* operators without a C symbol print and parse in call form *)
let test_call_forms () =
  let k =
    parse_ok
      "int a[4];\na[0] = min(3, 5);\na[1] = max(3, 5);\na[2] = not(0);\na[3] = lnot(-1);\n"
  in
  let st = Interp.run k ~init:[] in
  Alcotest.(check (array int)) "values" [| 3; 5; 1; 0 |] (Hashtbl.find st "a");
  let e = parse_err "int a[1];\na[0] = abs(1);\n" in
  Alcotest.(check string) "unknown function" "unknown function abs"
    e.Parse.message;
  let e = parse_err "int a[1];\na[0] = min(1);\n" in
  Alcotest.(check string) "arity" "expected ','" e.Parse.message

(* random expressions round-trip through print + parse *)
let prop_expr_roundtrip =
  let rec expr_gen depth =
    QCheck.Gen.(
      if depth = 0 then
        oneof [ map (fun n -> Ast.Int n) (int_range 0 99); return (Ast.Var "i") ]
      else
        frequency
          [
            (2, map (fun n -> Ast.Int n) (int_range 0 99));
            (2, return (Ast.Var "i"));
            (1, map (fun e -> Ast.Idx ("a", e)) (expr_gen (depth - 1)));
            ( 1,
              map2
                (fun op e -> Ast.Un (op, e))
                (oneofl Pv_dataflow.Types.[ Neg; Not; Lnot ])
                (expr_gen (depth - 1)) );
            ( 3,
              map3
                (fun op l r -> Ast.Bin (op, l, r))
                (oneofl
                   Pv_dataflow.Types.
                     [
                       Add; Sub; Mul; Mulc; Div; Rem; And; Or; Xor; Shl; Shr;
                       Lt; Le; Gt; Ge; Eq; Ne; Min; Max;
                     ])
                (expr_gen (depth - 1))
                (expr_gen (depth - 1)) );
          ])
  in
  QCheck.Test.make ~count:200 ~name:"expression print/parse round trip"
    (QCheck.make (expr_gen 4))
    (fun e ->
      let k =
        { Ast.name = "rt"; arrays = [ ("a", 100) ]; params = []; body = [ Ast.Store ("a", Ast.Int 0, e) ] }
      in
      let printed = Format.asprintf "%a" Ast.pp_kernel k in
      match Parse.kernel printed with
      | Error _ -> false
      | Ok k' -> (
          match (k.Ast.body, k'.Ast.body) with
          | [ Ast.Store (_, _, e1) ], [ Ast.Store (_, _, e2) ] ->
              (* compare by evaluation on a fixed environment *)
              let st = Hashtbl.create 1 in
              Hashtbl.replace st "a" (Array.init 100 (fun i -> (i * 13) mod 97));
              let env = [ ("i", 7) ] in
              (try Interp.eval st env e1 = Interp.eval st env e2
               with Interp.Out_of_bounds _ -> true)
          | _ -> false))

let () =
  Alcotest.run "pv_parse"
    [
      ( "parse",
        [
          Alcotest.test_case "minimal" `Quick test_minimal;
          Alcotest.test_case "header name" `Quick test_header_name;
          Alcotest.test_case "Fig. 2(a)" `Quick test_fig2a;
          Alcotest.test_case "if/else" `Quick test_if_else;
          Alcotest.test_case "precedence" `Quick test_precedence;
          Alcotest.test_case "comments" `Quick test_comments;
          Alcotest.test_case "-= and unary minus" `Quick
            test_minus_assign_and_unary;
          Alcotest.test_case "error position" `Quick test_error_position;
          Alcotest.test_case "bound variable check" `Quick test_error_bound_var;
          Alcotest.test_case "loop or if inside an if body" `Quick
            test_error_nested_in_if;
          Alcotest.test_case "bundled kernels round-trip" `Quick
            test_roundtrip_bundled;
          Alcotest.test_case "min/max/not/lnot call forms" `Quick
            test_call_forms;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_expr_roundtrip ]);
    ]
