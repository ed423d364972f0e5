(* Tests for the kernel mini-language: interpreter semantics, the paper's
   kernel definitions, and workload determinism. *)

open Pv_kernels

(* --- interpreter semantics ------------------------------------------------ *)

let test_store_and_load () =
  let k =
    Ast.
      {
        name = "t";
        arrays = [ ("a", 4) ];
        params = [];
        body = [ store "a" (i 1) (i 42); store "a" (i 2) (idx "a" (i 1) + i 1) ];
      }
  in
  let st = Interp.run k ~init:[] in
  Alcotest.(check (array int)) "final a" [| 0; 42; 43; 0 |] (Hashtbl.find st "a")

let test_for_loop () =
  let k =
    Ast.
      {
        name = "t";
        arrays = [ ("a", 8) ];
        params = [ ("N", 8) ];
        body = [ for_ "i" (i 0) (v "N") [ store "a" (v "i") (v "i" * v "i") ] ];
      }
  in
  let st = Interp.run k ~init:[] in
  Alcotest.(check (array int)) "squares"
    [| 0; 1; 4; 9; 16; 25; 36; 49 |]
    (Hashtbl.find st "a")

let test_if () =
  let k =
    Ast.
      {
        name = "t";
        arrays = [ ("a", 6) ];
        params = [];
        body =
          [
            for_ "i" (i 0) (i 6)
              [
                If
                  ( v "i" % i 2 = i 0,
                    [ store "a" (v "i") (i 1) ],
                    [ store "a" (v "i") (i (-1)) ] );
              ];
          ];
      }
  in
  let st = Interp.run k ~init:[] in
  Alcotest.(check (array int)) "parity" [| 1; -1; 1; -1; 1; -1 |]
    (Hashtbl.find st "a")

let test_unbound_variable () =
  let k =
    Ast.
      { name = "t"; arrays = [ ("a", 1) ]; params = []; body = [ store "a" (i 0) (v "x") ] }
  in
  Alcotest.check_raises "unbound" (Interp.Unbound_variable "x") (fun () ->
      ignore (Interp.run k ~init:[]))

let test_out_of_bounds () =
  let k =
    Ast.
      { name = "t"; arrays = [ ("a", 2) ]; params = []; body = [ store "a" (i 5) (i 0) ] }
  in
  Alcotest.check_raises "oob"
    (Interp.Out_of_bounds { array = "a"; index = 5; length = 2 })
    (fun () -> ignore (Interp.run k ~init:[]))

let test_division_guard () =
  (* division by zero evaluates to 0 (hardware-style saturation) *)
  let k =
    Ast.
      {
        name = "t";
        arrays = [ ("a", 1) ];
        params = [];
        body = [ store "a" (i 0) (i 7 / i 0) ];
      }
  in
  let st = Interp.run k ~init:[] in
  Alcotest.(check int) "div0 -> 0" 0 (Hashtbl.find st "a").(0)

(* --- staging keeps the walker's semantics ------------------------------------ *)

(* A wrong-length init is refused by both entry points: the instance count
   runs the same staged program as [run], not a silently mis-sized copy. *)
let test_init_length_checked () =
  let k = Defs.polyn_mult ~n:4 () in
  let init = [ ("a", [| 1; 2; 3; 4; 5 |]) ] in
  let refuses name f =
    Alcotest.(check bool)
      (name ^ " raises Invalid_argument")
      true
      (try
         ignore (f ());
         false
       with Invalid_argument _ -> true)
  in
  refuses "run" (fun () -> Interp.run k ~init);
  refuses "count_instances" (fun () -> Interp.count_instances k ~init)

(* Errors raise where the walk reaches them: an unbound name or an
   out-of-bounds store under an untaken branch or in a zero-trip loop is
   never reached. *)
let test_unreached_errors () =
  let bad = Ast.[ store "a" (i 9) (v "x"); store "nope" (i 0) (i 0) ] in
  let k =
    Ast.
      {
        name = "t";
        arrays = [ ("a", 2) ];
        params = [ ("N", 0) ];
        body =
          [
            If (i 0, bad, [ store "a" (i 0) (i 5) ]);
            If (i 1, [ store "a" (i 1) (i 6) ], bad);
            for_ "i" (i 3) (i 3) bad;
            for_ "j" (i 0) (v "N") [ for_ "k" (v "y") (i 1) bad ];
          ];
      }
  in
  let st = Interp.run k ~init:[] in
  Alcotest.(check (array int)) "taken branches only" [| 5; 6 |]
    (Hashtbl.find st "a");
  Alcotest.(check int) "instances" 2 (Interp.count_instances k ~init:[])

(* An inner loop variable shadows a parameter of the same name, and the
   parameter is visible again after the loop. *)
let test_loop_shadows_param () =
  let k =
    Ast.
      {
        name = "t";
        arrays = [ ("a", 4) ];
        params = [ ("i", 3) ];
        body =
          [
            for_ "i" (i 0) (v "i") [ store "a" (v "i") (v "i" + i 10) ];
            store "a" (v "i") (i 7);
          ];
      }
  in
  let st = Interp.run k ~init:[] in
  Alcotest.(check (array int)) "loop var inside, param after"
    [| 10; 11; 12; 7 |] (Hashtbl.find st "a");
  Alcotest.(check int) "eval: innermost binding" 2
    (Interp.eval st [ ("i", 2); ("i", 3) ] (Ast.v "i"))

(* The right operand of a binary operator is evaluated first, so of two
   faulting operands the right one's error wins. *)
let test_right_operand_first () =
  let k =
    Ast.
      {
        name = "t";
        arrays = [ ("a", 4) ];
        params = [];
        body = [ store "a" (i 0) (idx "a" (i 99) + v "x") ];
      }
  in
  Alcotest.check_raises "unbound x, not a[99]" (Interp.Unbound_variable "x")
    (fun () -> ignore (Interp.run k ~init:[]));
  (* and a store checks its index before evaluating its value *)
  let k' = { k with Ast.body = Ast.[ store "a" (i 4) (v "x") ] } in
  Alcotest.check_raises "bounds before value"
    (Interp.Out_of_bounds { array = "a"; index = 4; length = 4 })
    (fun () -> ignore (Interp.run k' ~init:[]))

(* --- kernel definitions --------------------------------------------------- *)

(* polyn_mult against a direct reference implementation *)
let test_polyn_mult_reference () =
  let n = 12 in
  let k = Defs.polyn_mult ~n () in
  let init = Workload.default_init k in
  let st = Interp.run k ~init in
  let a = List.assoc "a" init and b = List.assoc "b" init in
  let expect = Array.make ((2 * n) - 1) 0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      expect.(i + j) <- expect.(i + j) + (a.(i) * b.(j))
    done
  done;
  Alcotest.(check (array int)) "c = a conv b" expect (Hashtbl.find st "c")

(* 2mm against matrix algebra *)
let test_two_mm_reference () =
  let n = 5 in
  let k = Defs.two_mm ~n () in
  let init = Workload.default_init k in
  let st = Interp.run k ~init in
  let a = List.assoc "A" init and b = List.assoc "B" init and c = List.assoc "C" init in
  let matmul x y =
    Array.init (n * n) (fun ix ->
        let i = ix / n and j = ix mod n in
        let acc = ref 0 in
        for q = 0 to n - 1 do
          acc := !acc + (x.((i * n) + q) * y.((q * n) + j))
        done;
        !acc)
  in
  let tmp = matmul a b in
  Alcotest.(check (array int)) "tmp" tmp (Hashtbl.find st "tmp");
  Alcotest.(check (array int)) "D" (matmul tmp c) (Hashtbl.find st "D")

(* gaussian zeroes nothing in column k during step k (factor stays valid) *)
let test_gaussian_upper_triangularises () =
  let n = 8 in
  let k = Defs.gaussian ~n () in
  let init = Workload.default_init k in
  let st = Interp.run k ~init in
  let a = Hashtbl.find st "a" in
  (* the elimination runs to completion: the result differs from the input
     and the trailing element has been updated n-1 times *)
  let orig = List.assoc "a" init in
  Alcotest.(check bool) "matrix changed" true (a <> orig);
  Alcotest.(check int) "size preserved" (n * n) (Array.length a)

(* triangular result only touches the lower triangle *)
let test_triangular_lower_only () =
  let n = 6 in
  let k = Defs.triangular ~n () in
  let init = Workload.default_init k in
  let st = Interp.run k ~init in
  let c = Hashtbl.find st "c" in
  let upper_zero = ref true in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if c.((i * n) + j) <> 0 then upper_zero := false
    done
  done;
  Alcotest.(check bool) "upper triangle untouched" true !upper_zero

(* triangular and triangular_tight compute the same function *)
let test_triangular_variants_agree () =
  let n = 7 in
  let a = Defs.triangular ~n () and b = Defs.triangular_tight ~n () in
  let init = Workload.default_init a in
  let sa = Interp.run a ~init and sb = Interp.run b ~init in
  Alcotest.(check (array int)) "same product" (Hashtbl.find sa "c")
    (Hashtbl.find sb "c")

let test_histogram_counts () =
  let k = Defs.histogram ~n:16 () in
  let init = Workload.default_init k in
  let st = Interp.run k ~init in
  let b0 = List.assoc "b" init in
  let a = Hashtbl.find st "a" in
  (* every a[x] is A * (number of i with b[i] = x) *)
  let expect = Array.make 16 0 in
  Array.iter (fun x -> expect.(x) <- expect.(x) + 3) b0;
  Alcotest.(check (array int)) "histogram" expect a

let test_count_instances () =
  let k = Defs.polyn_mult ~n:10 () in
  Alcotest.(check int) "polyn instances" 100
    (Interp.count_instances k ~init:(Workload.default_init k));
  let g = Defs.gaussian ~n:6 () in
  (* sum over k of (n-k-1)^2 *)
  let expect = ref 0 in
  for q = 0 to 5 do
    expect := !expect + ((5 - q) * (5 - q))
  done;
  Alcotest.(check int) "gaussian instances" !expect
    (Interp.count_instances g ~init:(Workload.default_init g))

let test_by_name () =
  Alcotest.(check string) "lookup" "2mm" (Defs.by_name "2mm").Ast.name;
  Alcotest.check_raises "unknown" (Invalid_argument "unknown kernel \"nope\"")
    (fun () -> ignore (Defs.by_name "nope"))

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let test_pretty_printer () =
  let s = Format.asprintf "%a" Ast.pp_kernel (Defs.histogram ~n:4 ()) in
  Alcotest.(check bool) "mentions arrays" true (contains ~needle:"int a[4]" s);
  Alcotest.(check bool) "mentions loop" true (contains ~needle:"for (i" s)

(* --- workload determinism -------------------------------------------------- *)

let test_workload_deterministic () =
  let k = Defs.two_mm () in
  let i1 = Workload.default_init k and i2 = Workload.default_init k in
  List.iter2
    (fun (n1, a1) (n2, a2) ->
      Alcotest.(check string) "name" n1 n2;
      Alcotest.(check (array int)) "data" a1 a2)
    i1 i2

let test_workload_in_bounds () =
  List.iter
    (fun k ->
      let init = Workload.default_init k in
      (* the interpreter's bounds checks double as validation *)
      ignore (Interp.run k ~init))
    (Defs.all ())

(* --- properties ------------------------------------------------------------ *)

(* interpreter is deterministic: same init -> same result *)
let prop_interp_deterministic =
  QCheck.Test.make ~count:20 ~name:"interpreter deterministic"
    QCheck.(int_range 4 24)
    (fun n ->
      let k = Defs.polyn_mult ~n () in
      let init = Workload.default_init k in
      let s1 = Interp.run k ~init and s2 = Interp.run k ~init in
      Hashtbl.find s1 "c" = Hashtbl.find s2 "c")

(* polynomial multiplication is commutative in its inputs *)
let prop_polyn_commutes =
  QCheck.Test.make ~count:20 ~name:"polyn_mult commutes"
    QCheck.(int_range 2 16)
    (fun n ->
      let k = Defs.polyn_mult ~n () in
      let init = Workload.default_init k in
      let a = List.assoc "a" init and b = List.assoc "b" init in
      let r1 = Hashtbl.find (Interp.run k ~init:[ ("a", a); ("b", b) ]) "c" in
      let r2 = Hashtbl.find (Interp.run k ~init:[ ("a", b); ("b", a) ]) "c" in
      r1 = r2)

let () =
  Alcotest.run "pv_kernels"
    [
      ( "interp",
        [
          Alcotest.test_case "store/load" `Quick test_store_and_load;
          Alcotest.test_case "for loop" `Quick test_for_loop;
          Alcotest.test_case "if" `Quick test_if;
          Alcotest.test_case "unbound var" `Quick test_unbound_variable;
          Alcotest.test_case "out of bounds" `Quick test_out_of_bounds;
          Alcotest.test_case "division by zero" `Quick test_division_guard;
          Alcotest.test_case "init length checked" `Quick
            test_init_length_checked;
          Alcotest.test_case "unreached errors" `Quick test_unreached_errors;
          Alcotest.test_case "loop shadows param" `Quick
            test_loop_shadows_param;
          Alcotest.test_case "right operand first" `Quick
            test_right_operand_first;
        ] );
      ( "kernels",
        [
          Alcotest.test_case "polyn_mult reference" `Quick
            test_polyn_mult_reference;
          Alcotest.test_case "2mm reference" `Quick test_two_mm_reference;
          Alcotest.test_case "gaussian shape" `Quick
            test_gaussian_upper_triangularises;
          Alcotest.test_case "triangular lower-only" `Quick
            test_triangular_lower_only;
          Alcotest.test_case "triangular variants agree" `Quick
            test_triangular_variants_agree;
          Alcotest.test_case "histogram counts" `Quick test_histogram_counts;
          Alcotest.test_case "count_instances" `Quick test_count_instances;
          Alcotest.test_case "by_name" `Quick test_by_name;
          Alcotest.test_case "pretty printer" `Quick test_pretty_printer;
        ] );
      ( "workload",
        [
          Alcotest.test_case "deterministic" `Quick test_workload_deterministic;
          Alcotest.test_case "in bounds" `Quick test_workload_in_bounds;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_interp_deterministic;
          QCheck_alcotest.to_alcotest prop_polyn_commutes;
        ] );
    ]
