(* Tests for the optional optimisation passes: constant folding at the AST
   level, and load CSE through the analysis + builder. *)

open Pv_core
open Pv_kernels

(* --- constant folding -------------------------------------------------------- *)

let test_fold_literals () =
  let open Ast in
  let k =
    {
      name = "t";
      arrays = [ ("a", 4) ];
      params = [ ("N", 10) ];
      body =
        [
          store "a" (i 0) ((i 2 * i 3) + i 1);
          store "a" (i 1) (v "N" - i 4);
          store "a" (i 2) ((v "N" * i 0) + (idx "a" (i 0) * i 1));
        ];
    }
  in
  match (Pv_frontend.Optimize.constant_fold k).Ast.body with
  | [ Ast.Store (_, _, Ast.Int 7); Ast.Store (_, _, Ast.Int 6); Ast.Store (_, _, Ast.Idx _) ]
    ->
      ()
  | _ -> Alcotest.fail "unexpected folded body"

let test_fold_preserves_semantics () =
  List.iter
    (fun k ->
      let folded = Pv_frontend.Optimize.constant_fold k in
      let init = Workload.default_init k in
      let a = Interp.run k ~init and b = Interp.run folded ~init in
      List.iter
        (fun (name, _) ->
          Alcotest.(check (array int))
            (k.Ast.name ^ "." ^ name)
            (Hashtbl.find a name) (Hashtbl.find b name))
        k.Ast.arrays)
    (Defs.all ())

let test_fold_shrinks_circuit () =
  (* polyn_mult's N parameter disappears into constants; the folded kernel
     builds a circuit with no more nodes than the original *)
  let k = Defs.polyn_mult ~n:8 () in
  let nodes kernel =
    Pv_dataflow.Graph.n_nodes (Pipeline.compile kernel).Pipeline.graph
  in
  Alcotest.(check bool) "not larger" true
    (nodes (Pv_frontend.Optimize.constant_fold k) <= nodes k)

(* --- CSE --------------------------------------------------------------------- *)

let ports_of options k =
  let compiled = Pipeline.compile ~options k in
  Array.length
    compiled.Pipeline.info.Pv_frontend.Depend.portmap.Pv_memory.Portmap.ports

let cse_options =
  { Pv_frontend.Build.default_options with Pv_frontend.Build.cse = true }

let test_cse_removes_ports () =
  Alcotest.(check int) "histogram without cse" 6
    (ports_of Pv_frontend.Build.default_options (Defs.histogram ()));
  Alcotest.(check int) "histogram with cse: b[i] once" 5
    (ports_of cse_options (Defs.histogram ()));
  Alcotest.(check int) "cond_update without cse" 6
    (ports_of Pv_frontend.Build.default_options (Defs.cond_update ()));
  Alcotest.(check int) "cond_update with cse: y[i] and x[i] reused" 4
    (ports_of cse_options (Defs.cond_update ()));
  Alcotest.(check int) "polyn_mult: nothing to share"
    (ports_of Pv_frontend.Build.default_options (Defs.polyn_mult ()))
    (ports_of cse_options (Defs.polyn_mult ()))

let check_cse_correct k dis =
  let compiled = Pipeline.compile ~options:cse_options k in
  let r = Pipeline.simulate compiled dis in
  (match r.Pipeline.outcome with
  | Pv_dataflow.Sim.Finished _ -> ()
  | o ->
      Alcotest.failf "%s under cse: %a" k.Ast.name Pv_dataflow.Sim.pp_outcome o);
  match Pipeline.verify compiled r with
  | [] -> ()
  | l -> Alcotest.failf "%s under cse: %d mismatches" k.Ast.name (List.length l)

let test_cse_verified_grid () =
  (* kernels with real CSE opportunities, under every scheme *)
  List.iter
    (fun k ->
      List.iter (check_cse_correct k)
        [ Scheme.plain_lsq; Scheme.fast_lsq; Scheme.prevv 16 ])
    [ Defs.histogram (); Defs.fn_dependent (); Defs.cond_update (); Defs.spmv_like () ]

let test_cse_noop_when_no_duplicates () =
  (* on a duplicate-free kernel, cse changes nothing structural *)
  let k = Defs.two_mm ~n:4 () in
  Alcotest.(check int) "same port count"
    (ports_of Pv_frontend.Build.default_options k)
    (ports_of cse_options k)

(* folding + cse together, end to end, on every bundled kernel *)
let test_both_passes_grid () =
  List.iter
    (fun k ->
      let folded = Pv_frontend.Optimize.constant_fold k in
      check_cse_correct folded (Scheme.prevv 64))
    (Defs.all ())

(* property: folding is idempotent *)
let prop_fold_idempotent =
  QCheck.Test.make ~count:30 ~name:"constant folding is idempotent"
    QCheck.(int_range 2 14)
    (fun n ->
      let k = Pv_frontend.Optimize.constant_fold (Defs.polyn_mult ~n ()) in
      Pv_frontend.Optimize.constant_fold k = k)

let () =
  Alcotest.run "pv_optimize"
    [
      ( "fold",
        [
          Alcotest.test_case "literals" `Quick test_fold_literals;
          Alcotest.test_case "preserves semantics" `Quick
            test_fold_preserves_semantics;
          Alcotest.test_case "shrinks circuit" `Quick test_fold_shrinks_circuit;
        ] );
      ( "cse",
        [
          Alcotest.test_case "removes ports" `Quick test_cse_removes_ports;
          Alcotest.test_case "verified grid" `Quick test_cse_verified_grid;
          Alcotest.test_case "no-op without duplicates" `Quick
            test_cse_noop_when_no_duplicates;
          Alcotest.test_case "fold + cse on all kernels" `Quick
            test_both_passes_grid;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_fold_idempotent ]);
    ]
