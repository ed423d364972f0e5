(* Tests for the front-end: dependence analysis, trace generation, circuit
   construction and throughput balancing. *)

open Pv_frontend
open Pv_kernels

let info_of k = Depend.analyse k

(* --- dependence analysis --------------------------------------------------- *)

let test_leaves_and_groups () =
  let info = info_of (Defs.two_mm ~n:4 ()) in
  Alcotest.(check int) "two leaves" 2 (List.length info.Depend.leaves);
  Alcotest.(check int) "two groups" 2 info.Depend.portmap.Pv_memory.Portmap.n_groups;
  Alcotest.(check int) "max depth 3" 3 info.Depend.max_loop_depth

let test_ambiguous_arrays () =
  let info = info_of (Defs.two_mm ~n:4 ()) in
  Alcotest.(check (list string)) "stored arrays are ambiguous" [ "tmp"; "D" ]
    (List.map fst info.Depend.ambiguous_arrays)

let test_affine_classification () =
  let info = info_of (Defs.two_mm ~n:4 ()) in
  List.iter
    (fun (a, cls) ->
      Alcotest.(check bool) (a ^ " affine") true (cls = Depend.Affine))
    info.Depend.ambiguous_arrays;
  let hist = info_of (Defs.histogram ()) in
  Alcotest.(check bool) "histogram a indirect" true
    (List.assoc "a" hist.Depend.ambiguous_arrays = Depend.Indirect)

let test_affine_of () =
  let params = [ ("N", 10) ] in
  let e_affine = Ast.((v "i" * v "N") + v "j" + i 3) in
  let e_indirect = Ast.(idx "b" (v "i")) in
  let e_bilinear = Ast.(v "i" * v "j") in
  (match Depend.affine_of ~params e_affine with
  | Some { Depend.coeffs; const } ->
      Alcotest.(check int) "const" 3 const;
      Alcotest.(check (list (pair string int))) "coeffs"
        [ ("i", 10); ("j", 1) ]
        (List.sort compare coeffs)
  | None -> Alcotest.fail "expected affine");
  Alcotest.(check bool) "indirect is not affine" true
    (Depend.affine_of ~params e_indirect = None);
  Alcotest.(check bool) "i*j is not affine" true
    (Depend.affine_of ~params e_bilinear = None)

let test_port_enumeration_order () =
  (* polyn_mult: c[i+j] += a[i]*b[j]
     index loads first (none), then value loads post-order: c, a, b, store c *)
  let info = info_of (Defs.polyn_mult ~n:4 ()) in
  let arrays =
    Array.to_list info.Depend.portmap.Pv_memory.Portmap.ports
    |> List.map (fun p -> p.Pv_memory.Portmap.array)
  in
  Alcotest.(check (list string)) "program order" [ "c"; "a"; "b"; "c" ] arrays

let test_naive_pair_count () =
  let info = info_of (Defs.gaussian ~n:6 ()) in
  (* 4 ambiguous loads x 1 store on array a *)
  Alcotest.(check int) "gaussian pairs" 4 (Depend.naive_pair_count info)

let test_conditional_ops () =
  let info = info_of (Defs.cond_update ()) in
  let conditional =
    List.concat_map
      (fun l -> List.filter (fun o -> o.Depend.op_conditional) l.Depend.ops)
      info.Depend.leaves
  in
  (* store s[y[i]] = s[y[i]] + x[i]: the index load of y, the value loads
     of y, s and x, and the store itself *)
  Alcotest.(check int) "conditional ops" 5 (List.length conditional)

(* --- lowering --------------------------------------------------------------- *)

(* a[i] = x[i] + x[i];
   if (x[i] > 0) s[i] = x[i] + y[i] + y[i]; else s[i] = y[i]; *)
let lowering_kernel =
  let open Ast in
  {
    name = "lowering";
    arrays = [ ("a", 8); ("x", 8); ("y", 8); ("s", 8) ];
    params = [];
    body =
      [
        for_ "i" (i 0) (i 8)
          [
            store "a" (v "i") (idx "x" (v "i") + idx "x" (v "i"));
            If
              ( idx "x" (v "i") > i 0,
                [
                  store "s" (v "i")
                    (idx "x" (v "i") + idx "y" (v "i") + idx "y" (v "i"));
                ],
                [ store "s" (v "i") (idx "y" (v "i")) ] );
          ];
      ];
  }

let lowered ~cse =
  List.map
    (fun l -> l.Depend.lowered)
    (Depend.analyse ~cse lowering_kernel).Depend.leaves

(* ports of a lowered leaf in program order, and its reuses *)
let ports_and_reuses (l : Depend.lowered) =
  let ports = ref [] and reuses = ref [] in
  let rec expr (e : Depend.lexpr) =
    match e with
    | Depend.Int _ | Depend.Var _ -> ()
    | Depend.Un (_, x) -> expr x
    | Depend.Bin (_, x, y) ->
        expr x;
        expr y
    | Depend.Load { port; index; _ } ->
        expr index;
        ports := port :: !ports
    | Depend.Reuse { port; guarded } -> reuses := (port, guarded) :: !reuses
  in
  let store (st : Depend.lstore) =
    expr st.Depend.index;
    expr st.Depend.value;
    ports := st.Depend.port :: !ports
  in
  (match l with
  | Depend.Plain st -> store st
  | Depend.Cond (c, t, e) ->
      expr c;
      List.iter store t;
      List.iter store e);
  (List.rev !ports, List.rev !reuses)

let test_lowering_cse_scopes () =
  let x = Depend.Load { port = 2; array = "x"; index = Depend.Var "i" } in
  let y_then = Depend.Load { port = 3; array = "y"; index = Depend.Var "i" } in
  let y_else = Depend.Load { port = 5; array = "y"; index = Depend.Var "i" } in
  let add a b = Depend.Bin (Pv_dataflow.Types.Add, a, b) in
  let expected =
    [
      (* a repeat in the same scope reuses the port, unguarded *)
      Depend.Plain
        {
          Depend.port = 1;
          array = "a";
          index = Depend.Var "i";
          value =
            add
              (Depend.Load { port = 0; array = "x"; index = Depend.Var "i" })
              (Depend.Reuse { port = 0; guarded = false });
        };
      (* the condition's x[i] is reused in the then branch through its
         guard; y[i] is shared within the then branch but loaded again in
         the else branch *)
      Depend.Cond
        ( Depend.Bin (Pv_dataflow.Types.Gt, x, Depend.Int 0),
          [
            {
              Depend.port = 4;
              array = "s";
              index = Depend.Var "i";
              value =
                add
                  (add (Depend.Reuse { port = 2; guarded = true }) y_then)
                  (Depend.Reuse { port = 3; guarded = false });
            };
          ],
          [
            {
              Depend.port = 6;
              array = "s";
              index = Depend.Var "i";
              value = y_else;
            };
          ] );
    ]
  in
  Alcotest.(check bool) "lowered with cse" true (lowered ~cse:true = expected)

let test_lowering_port_order () =
  List.iter
    (fun (cse, n) ->
      let leaves = lowered ~cse in
      let ports = List.concat_map (fun l -> fst (ports_and_reuses l)) leaves in
      Alcotest.(check (list int))
        (Printf.sprintf "cse %b: ports 0..%d in program order" cse (n - 1))
        (List.init n Fun.id) ports;
      let info = Depend.analyse ~cse lowering_kernel in
      Alcotest.(check int) "one port map entry per port" n
        (Array.length info.Depend.portmap.Pv_memory.Portmap.ports))
    [ (true, 7); (false, 10) ];
  Alcotest.(check (list (pair int bool))) "no reuse without cse" []
    (List.concat_map (fun l -> snd (ports_and_reuses l)) (lowered ~cse:false));
  (* the same holds on every bundled kernel, with and without cse *)
  List.iter
    (fun k ->
      List.iter
        (fun cse ->
          let info = Depend.analyse ~cse k in
          let ports, reuses =
            List.split
              (List.map
                 (fun l -> ports_and_reuses l.Depend.lowered)
                 info.Depend.leaves)
          in
          let n = Array.length info.Depend.portmap.Pv_memory.Portmap.ports in
          let name = Printf.sprintf "%s, cse %b" k.Ast.name cse in
          Alcotest.(check (list int)) (name ^ ": ports") (List.init n Fun.id)
            (List.concat ports);
          if not cse then
            Alcotest.(check int) (name ^ ": reuses") 0
              (List.length (List.concat reuses)))
        [ false; true ])
    (Defs.all ())

(* --- trace ------------------------------------------------------------------ *)

let test_trace_length_matches_interpreter () =
  List.iter
    (fun k ->
      let info = info_of k in
      let trace = Trace.of_kernel k info in
      let init = Workload.default_init k in
      Alcotest.(check int)
        (k.Ast.name ^ " trace length")
        (Interp.count_instances k ~init)
        (Trace.length trace))
    [ Defs.polyn_mult ~n:6 (); Defs.gaussian ~n:6 (); Defs.two_mm ~n:3 () ]

let test_trace_rows () =
  let k = Defs.two_mm ~n:2 () in
  let info = info_of k in
  let t = Trace.of_kernel k info in
  (* 2 leaves x 2^3 instances *)
  Alcotest.(check int) "length" 16 (Trace.length t);
  Alcotest.(check (array int)) "first row" [| 0; 0; 0; 0 |] t.Trace.rows.(0);
  Alcotest.(check (array int)) "last row" [| 1; 1; 1; 1 |] t.Trace.rows.(15);
  let spec = Trace.gen_spec t in
  Alcotest.(check bool) "exhausted" true (spec.Pv_dataflow.Types.gen_next 16 = [||]);
  Alcotest.(check int) "group of 8" 1 (spec.Pv_dataflow.Types.gen_group 8)

let test_trace_data_dependent_bound () =
  let open Ast in
  let k =
    {
      name = "bad";
      arrays = [ ("a", 4) ];
      params = [];
      body = [ for_ "i" (i 0) (idx "a" (i 0)) [ store "a" (i 0) (i 1) ] ];
    }
  in
  let info = info_of k in
  Alcotest.(check bool) "raises Data_dependent_bound" true
    (try
       ignore (Trace.of_kernel k info);
       false
     with Trace.Data_dependent_bound _ -> true)

(* Bounds are evaluated only when the walk reaches them: a data-dependent
   or unbound bound nested in a zero-trip loop raises nothing. *)
let test_trace_unreached_bound () =
  let open Ast in
  let k =
    {
      name = "lazy";
      arrays = [ ("a", 4) ];
      params = [ ("N", 0) ];
      body =
        [
          for_ "i" (i 0) (v "N")
            [
              for_ "j" (i 0) (idx "a" (i 0)) [ store "a" (i 0) (i 1) ];
              for_ "j" (v "y") (i 2) [ store "a" (i 1) (i 1) ];
            ];
          for_ "i" (i 0) (i 2) [ store "a" (v "i") (i 2) ];
        ];
    }
  in
  let t = Trace.of_kernel k (info_of k) in
  Alcotest.(check int) "only the second nest" 2 (Trace.length t);
  Alcotest.(check (array int)) "row 1" [| 2; 1; 0 |] t.Trace.rows.(1)

(* An inner loop variable shadows a parameter of the same name. *)
let test_trace_loop_shadows_param () =
  let open Ast in
  let k =
    {
      name = "shadow";
      arrays = [ ("a", 8) ];
      params = [ ("i", 3) ];
      body = [ for_ "i" (i 1) (v "i") [ store "a" (v "i") (i 0) ] ];
    }
  in
  let t = Trace.of_kernel k (info_of k) in
  Alcotest.(check (list (array int)))
    "rows carry the loop variable" [ [| 0; 1 |]; [| 0; 2 |] ]
    (Array.to_list t.Trace.rows)

(* --- build ------------------------------------------------------------------ *)

let test_build_all_kernels_valid () =
  List.iter
    (fun k ->
      let compiled = Pv_core.Pipeline.compile k in
      (* Check.validate_exn runs inside Sim.create; run it directly here *)
      Pv_dataflow.Check.validate_exn compiled.Pv_core.Pipeline.graph;
      Alcotest.(check bool)
        (k.Ast.name ^ " has nodes")
        true
        (Pv_dataflow.Graph.n_nodes compiled.Pv_core.Pipeline.graph > 10))
    (Defs.all ())

let test_build_port_count_matches_analysis () =
  List.iter
    (fun k ->
      let compiled = Pv_core.Pipeline.compile k in
      let g = compiled.Pv_core.Pipeline.graph in
      let pm = compiled.Pv_core.Pipeline.info.Depend.portmap in
      let port_nodes =
        Pv_dataflow.Graph.count_nodes
          (fun n ->
            match n.Pv_dataflow.Graph.kind with
            | Pv_dataflow.Types.Load _ | Pv_dataflow.Types.Store _ -> true
            | _ -> false)
          g
      in
      Alcotest.(check int)
        (k.Ast.name ^ " ports")
        (Array.length pm.Pv_memory.Portmap.ports)
        port_nodes)
    (Defs.all ())

let test_build_strength_reduction () =
  (* i*n with constant n must become Mulc, not Mul *)
  let compiled = Pv_core.Pipeline.compile (Defs.two_mm ~n:4 ()) in
  let g = compiled.Pv_core.Pipeline.graph in
  let count op =
    Pv_dataflow.Graph.count_nodes
      (fun n -> n.Pv_dataflow.Graph.kind = Pv_dataflow.Types.Binop op)
      g
  in
  Alcotest.(check bool) "addr muls reduced" true (count Pv_dataflow.Types.Mulc > 0);
  (* the data multiply A[i][k]*B[k][j] stays a true multiplier *)
  Alcotest.(check bool) "data mul remains" true (count Pv_dataflow.Types.Mul > 0)

let test_skip_nodes_only_with_fake_tokens () =
  let count_skips options =
    let compiled = Pv_core.Pipeline.compile ~options (Defs.cond_update ()) in
    Pv_dataflow.Graph.count_nodes
      (fun n ->
        match n.Pv_dataflow.Graph.kind with
        | Pv_dataflow.Types.Skip _ -> true
        | _ -> false)
      compiled.Pv_core.Pipeline.graph
  in
  Alcotest.(check int) "with fake tokens: 2 ambiguous conditional ops" 2
    (count_skips Build.default_options);
  Alcotest.(check int) "without fake tokens: none" 0
    (count_skips { Build.default_options with Build.fake_tokens = false })

(* Build's full structure, pinned with load CSE off and on: every node's id,
   label, kind with its payload and channels, and every channel's endpoints
   and width.  The digests were captured before the builder read the
   analysis' port-numbered leaves, and every bundled kernel must keep them. *)
let structure_dump g =
  let module G = Pv_dataflow.Graph in
  let module T = Pv_dataflow.Types in
  let b = Buffer.create 8192 in
  let kind = function
    | T.Gen s -> Printf.sprintf "gen/%d" s.T.gen_arity
    | T.Const n -> Printf.sprintf "const %d" n
    | (T.Fork n | T.Join n | T.Merge n | T.Mux n) as k ->
        Printf.sprintf "%s/%d" (T.kind_name k) n
    | T.Buffer { transparent; slots } ->
        Printf.sprintf "buffer %b %d" transparent slots
    | (T.Load { port } | T.Store { port } | T.Skip { port }) as k ->
        Printf.sprintf "%s p%d" (T.kind_name k) port
    | T.Galloc { group } -> Printf.sprintf "galloc g%d" group
    | k -> T.kind_name k
  in
  let chans a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
  G.iter_nodes
    (fun n ->
      Printf.bprintf b "n%d %s [%s] in(%s) out(%s)\n" n.G.nid n.G.label
        (kind n.G.kind) (chans n.G.inputs) (chans n.G.outputs))
    g;
  G.iter_chans
    (fun c ->
      Printf.bprintf b "c%d %d.%d->%d.%d w%d\n" c.G.cid c.G.src.G.node
        c.G.src.G.slot c.G.dst.G.node c.G.dst.G.slot c.G.width)
    g;
  Buffer.contents b

(* kernel, digest with cse off, digest with cse on *)
let golden_structures =
  [
    ( "polyn_mult",
      "df866051ca30d33577545f5f52a72082",
      "df866051ca30d33577545f5f52a72082" );
    ( "2mm",
      "27652dbe1cb1c8b0dc4a03db9de9486b",
      "27652dbe1cb1c8b0dc4a03db9de9486b" );
    ( "3mm",
      "a7963bb7cd83f7c3e0132c28e73062fd",
      "a7963bb7cd83f7c3e0132c28e73062fd" );
    ( "gaussian",
      "c90131cae02c4a5760cfd9e279aa738c",
      "c90131cae02c4a5760cfd9e279aa738c" );
    ( "triangular",
      "5c26b21c33cf773d2ca77f47306fbf45",
      "5c26b21c33cf773d2ca77f47306fbf45" );
    ( "histogram",
      "f3955d2926684b72b0feab5c2b898503",
      "d62a102635697982a12a6c19f1535e67" );
    ( "fn_dependent",
      "8b2f643c629bf7a613bbcbd21e361b1b",
      "c227121eb58e3d633efe18e9a1931b45" );
    ( "cond_update",
      "86c7ca76bda84a0f1689f2a2146e5298",
      "db562828cf8731ecfa1977125f3a64e9" );
    ( "spmv_like",
      "3d3069aa749289b76b1d0621b6d08d77",
      "fef3cb99910703c32a1cd9c7e6a2da3d" );
    ( "triangular_tight",
      "175a8db3ba19eab681a46aae7a6f56d8",
      "175a8db3ba19eab681a46aae7a6f56d8" );
    ( "fir_smooth",
      "5c192583d87d9170ea5479ed32b95a89",
      "5c192583d87d9170ea5479ed32b95a89" );
    ( "matvec",
      "177c2dbe18de47760b9214e5943bacfc",
      "177c2dbe18de47760b9214e5943bacfc" );
    ( "stencil1d",
      "449639d532e09ff22fcaf55433da6728",
      "449639d532e09ff22fcaf55433da6728" );
    ( "bicg",
      "58fdddee04576c2bc7854d531705286a",
      "58fdddee04576c2bc7854d531705286a" );
    ( "running_max",
      "9cc9d8783d54e71ef97d417bf34ee9e2",
      "9cc9d8783d54e71ef97d417bf34ee9e2" );
  ]

let test_build_structure_pin () =
  let digest cse k =
    let options = { Build.default_options with Build.cse } in
    let g = (Pv_core.Pipeline.compile ~options k).Pv_core.Pipeline.graph in
    Digest.to_hex (Digest.string (structure_dump g))
  in
  Alcotest.(check (list (triple string string string)))
    "structures" golden_structures
    (List.map
       (fun k -> (k.Ast.name, digest false k, digest true k))
       (Defs.all ()))

(* --- balance ----------------------------------------------------------------- *)

let test_balance_plan_covers_deficits () =
  let compiled =
    Pv_core.Pipeline.compile
      ~options:{ Build.default_options with Build.balance = false }
      (Defs.polyn_mult ~n:4 ())
  in
  let g = compiled.Pv_core.Pipeline.graph in
  let slots = Balance.plan g in
  Alcotest.(check bool) "some channels need slack" true
    (Array.exists (fun s -> s > 0) slots);
  let g' = Balance.insert_buffers g slots in
  Alcotest.(check bool) "buffers added" true
    (Pv_dataflow.Graph.n_nodes g' > Pv_dataflow.Graph.n_nodes g);
  Pv_dataflow.Check.validate_exn g'

let test_balance_improves_throughput () =
  let cycles options =
    let compiled = Pv_core.Pipeline.compile ~options (Defs.polyn_mult ~n:8 ()) in
    let r = Pv_core.Pipeline.simulate compiled (Pv_core.Pipeline.prevv 16) in
    r.Pv_core.Pipeline.cycles
  in
  let balanced = cycles Build.default_options in
  let unbalanced = cycles { Build.default_options with Build.balance = false } in
  Alcotest.(check bool)
    (Printf.sprintf "balanced %d < unbalanced %d" balanced unbalanced)
    true (balanced < unbalanced)

(* the builder-based rebuild [Balance.insert_buffers] used before the splice:
   the reference for its id and order rule *)
let rebuild_reference (g : Pv_dataflow.Graph.t) (slots : int array) =
  let module G = Pv_dataflow.Graph in
  let b = G.create () in
  G.iter_nodes (fun n -> ignore (G.add ~label:n.G.label b n.G.kind)) g;
  G.iter_chans
    (fun c ->
      let src = (c.G.src.G.node, c.G.src.G.slot) in
      let dst = (c.G.dst.G.node, c.G.dst.G.slot) in
      if slots.(c.G.cid) > 0 then begin
        let buf =
          G.add ~label:"slack" b
            (Pv_dataflow.Types.Buffer
               { transparent = true; slots = slots.(c.G.cid) })
        in
        G.connect ~width:c.G.width b src (buf, 0);
        G.connect ~width:c.G.width b (buf, 0) dst
      end
      else G.connect ~width:c.G.width b src dst)
    g;
  G.finalize b

(* every bundled kernel plus the area_sweep benchmark's generated
   population, each built without balancing *)
let unbalanced_population () =
  let spec =
    {
      Generate.max_depth = 3;
      max_stmts = 3;
      max_arrays = 4;
      array_len = 64;
      trip = 8;
      allow_if = true;
      allow_indirect = true;
      allow_div = true;
    }
  in
  let options = { Build.default_options with Build.balance = false } in
  List.map
    (fun k ->
      (k.Ast.name, (Pv_core.Pipeline.compile ~options k).Pv_core.Pipeline.graph))
    (Defs.all () @ List.init 200 (fun seed -> Generate.kernel ~spec seed))

let test_balance_matches_rebuild () =
  let module G = Pv_dataflow.Graph in
  let same_kind a b =
    match (a, b) with
    | Pv_dataflow.Types.Gen x, Pv_dataflow.Types.Gen y -> x == y
    | Pv_dataflow.Types.Gen _, _ | _, Pv_dataflow.Types.Gen _ -> false
    | _ -> a = b
  in
  let spliced = ref 0 in
  List.iter
    (fun (name, g) ->
      let want = rebuild_reference g (Balance.plan g) in
      let got = Balance.apply g in
      if G.n_nodes got > G.n_nodes g then incr spliced;
      Alcotest.(check int) (name ^ " nodes") (G.n_nodes want) (G.n_nodes got);
      Alcotest.(check int) (name ^ " chans") (G.n_chans want) (G.n_chans got);
      G.iter_nodes
        (fun w ->
          let n = G.node got w.G.nid in
          let what = Printf.sprintf "%s n%d" name w.G.nid in
          Alcotest.(check int) (what ^ " nid") w.G.nid n.G.nid;
          Alcotest.(check bool) (what ^ " kind") true (same_kind w.G.kind n.G.kind);
          Alcotest.(check string) (what ^ " label") w.G.label n.G.label;
          Alcotest.(check (array int)) (what ^ " inputs") w.G.inputs n.G.inputs;
          Alcotest.(check (array int)) (what ^ " outputs") w.G.outputs n.G.outputs)
        want;
      G.iter_chans
        (fun w ->
          let c = G.chan got w.G.cid in
          let endpoint e = (e.G.node, e.G.slot) in
          Alcotest.(check (pair (pair int int) (pair int int)))
            (Printf.sprintf "%s c%d" name w.G.cid)
            (endpoint w.G.src, endpoint w.G.dst)
            (endpoint c.G.src, endpoint c.G.dst);
          Alcotest.(check (pair int int))
            (Printf.sprintf "%s c%d id, width" name w.G.cid)
            (w.G.cid, w.G.width) (c.G.cid, c.G.width))
        want;
      Pv_dataflow.Check.validate_exn got)
    (unbalanced_population ());
  Alcotest.(check bool) "the population exercises the splice" true (!spliced > 100)

(* An [Array.make] past the minor-heap object limit seeded with a young
   block empties the minor heap first; balancing must not do that.  Only
   graphs whose balancing allocation fits the minor heap are judged. *)
let test_balance_forces_no_minor_collection () =
  let minor_heap = float_of_int (Gc.get ()).Gc.minor_heap_size in
  let forced =
    List.filter
      (fun (_, g) ->
        Gc.minor ();
        let c0 = (Gc.quick_stat ()).Gc.minor_collections in
        let w0 = Gc.minor_words () in
        ignore (Sys.opaque_identity (Balance.apply g));
        let w1 = Gc.minor_words () in
        let c1 = (Gc.quick_stat ()).Gc.minor_collections in
        w1 -. w0 < minor_heap && c1 <> c0)
      (unbalanced_population ())
  in
  Alcotest.(check (list string)) "graphs whose balancing forced a collection" []
    (List.map fst forced)

(* property: on randomized polyn sizes, the built circuit is structurally
   valid and its trace length matches the interpreter *)
let prop_build_valid =
  QCheck.Test.make ~count:15 ~name:"build validity over random sizes"
    QCheck.(int_range 2 20)
    (fun n ->
      let k = Defs.polyn_mult ~n () in
      let compiled = Pv_core.Pipeline.compile k in
      Pv_dataflow.Check.errors compiled.Pv_core.Pipeline.graph = []
      && Trace.length compiled.Pv_core.Pipeline.trace = n * n)

let () =
  Alcotest.run "pv_frontend"
    [
      ( "depend",
        [
          Alcotest.test_case "leaves and groups" `Quick test_leaves_and_groups;
          Alcotest.test_case "ambiguous arrays" `Quick test_ambiguous_arrays;
          Alcotest.test_case "affine classification" `Quick
            test_affine_classification;
          Alcotest.test_case "affine_of" `Quick test_affine_of;
          Alcotest.test_case "port enumeration order" `Quick
            test_port_enumeration_order;
          Alcotest.test_case "naive pair count" `Quick test_naive_pair_count;
          Alcotest.test_case "conditional ops" `Quick test_conditional_ops;
          Alcotest.test_case "lowering: CSE scopes" `Quick
            test_lowering_cse_scopes;
          Alcotest.test_case "lowering: port order" `Quick
            test_lowering_port_order;
        ] );
      ( "trace",
        [
          Alcotest.test_case "length matches interpreter" `Quick
            test_trace_length_matches_interpreter;
          Alcotest.test_case "rows" `Quick test_trace_rows;
          Alcotest.test_case "data-dependent bound" `Quick
            test_trace_data_dependent_bound;
          Alcotest.test_case "unreached bound" `Quick
            test_trace_unreached_bound;
          Alcotest.test_case "loop shadows param" `Quick
            test_trace_loop_shadows_param;
        ] );
      ( "build",
        [
          Alcotest.test_case "all kernels valid" `Quick
            test_build_all_kernels_valid;
          Alcotest.test_case "port counts" `Quick
            test_build_port_count_matches_analysis;
          Alcotest.test_case "strength reduction" `Quick
            test_build_strength_reduction;
          Alcotest.test_case "skip nodes" `Quick
            test_skip_nodes_only_with_fake_tokens;
          Alcotest.test_case "structure pin" `Quick test_build_structure_pin;
        ] );
      ( "balance",
        [
          Alcotest.test_case "plan covers deficits" `Quick
            test_balance_plan_covers_deficits;
          Alcotest.test_case "improves throughput" `Quick
            test_balance_improves_throughput;
          Alcotest.test_case "balance = rebuild reference" `Quick
            test_balance_matches_rebuild;
          Alcotest.test_case "Balance.apply forces no minor collection" `Quick
            test_balance_forces_no_minor_collection;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_build_valid ]);
    ]
