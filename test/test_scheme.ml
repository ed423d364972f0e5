(* The scheme registry: name round-trips (the one parser shared by CLI and
   bench), fingerprint distinctness (the cache-key component), registry
   behaviour, the grep-enforced "no backend match outside the adapter
   module" rule, and the differential harness's acceptance criterion —
   oracle <= prevv <= dynamatic <= serial on every paper kernel. *)

open Pv_core

let contains = Source_tree.contains

(* ------------------------------------------------------------------ *)
(* Name round-trips                                                    *)
(* ------------------------------------------------------------------ *)

let canonical_gen =
  QCheck.Gen.(
    oneof
      [
        return Scheme.plain_lsq;
        return Scheme.fast_lsq;
        return Scheme.oracle;
        return Scheme.serial;
        map (fun d -> Scheme.prevv d) (int_range 1 512);
      ])

let canonical_arb =
  QCheck.make ~print:Scheme.to_string canonical_gen

let roundtrip =
  QCheck.Test.make ~count:500 ~name:"of_string (to_string d) = Ok d"
    canonical_arb (fun d -> Scheme.of_string (Scheme.to_string d) = Ok d)

let registry_roundtrip () =
  List.iter
    (fun (module M : Scheme.S) ->
      Alcotest.(check bool)
        (M.name ^ " round-trips")
        true
        (Scheme.of_string M.name = Ok M.config);
      Alcotest.(check string)
        (M.name ^ " = to_string config")
        M.name
        (Scheme.to_string M.config))
    (Scheme.all ())

let bogus_names () =
  List.iter
    (fun s ->
      match Scheme.of_string s with
      | Ok _ -> Alcotest.failf "bogus backend name %S parsed" s
      | Error msg ->
          (* the error must teach: it lists the known names *)
          List.iter
            (fun known ->
              if not (contains ~needle:known msg) then
                Alcotest.failf "error for %S does not mention %S: %s" s known
                  msg)
            [ "dynamatic"; "prevv"; "oracle"; "serial" ])
    [ ""; "lsq"; "prevv0"; "prevv-1"; "prevvx"; "oracle2"; "PREVV16"; "-b" ]

let aliases () =
  Alcotest.(check bool)
    "plain-lsq alias" true
    (Scheme.of_string "plain-lsq" = Ok Scheme.plain_lsq);
  Alcotest.(check bool)
    "bare prevv means the paper's default depth" true
    (Scheme.of_string "prevv" = Ok (Scheme.prevv 16))

(* ------------------------------------------------------------------ *)
(* Fingerprints and the registry                                       *)
(* ------------------------------------------------------------------ *)

let fingerprints_distinct () =
  let configs =
    List.map (fun (module M : Scheme.S) -> M.config) (Scheme.all ())
    @ List.init 8 (fun i -> Scheme.prevv (1 lsl i))
  in
  let prints =
    List.map (fun d -> (Scheme.to_string d, Scheme.fingerprint_of d)) configs
  in
  List.iteri
    (fun i (n1, f1) ->
      List.iteri
        (fun j (n2, f2) ->
          if i < j && n1 <> n2 && f1 = f2 then
            Alcotest.failf "fingerprint collision: %s and %s -> %s" n1 n2 f1)
        prints)
    prints;
  (* and stable: the cache key must not drift between invocations *)
  List.iter
    (fun d ->
      Alcotest.(check string)
        (Scheme.to_string d ^ " fingerprint stable")
        (Scheme.fingerprint_of d) (Scheme.fingerprint_of d))
    configs

let registry_shape () =
  let names = List.map (fun (module M : Scheme.S) -> M.name) (Scheme.all ()) in
  Alcotest.(check (list string))
    "registration order"
    [ "dynamatic"; "fast-lsq"; "prevv16"; "prevv64"; "oracle"; "serial" ]
    names;
  Alcotest.(check (list string))
    "family names"
    [ "dynamatic"; "fast-lsq"; "prevv"; "oracle"; "serial" ]
    (List.map (fun f -> f.Scheme.f_name) (Scheme.families ()))

let descriptions () =
  List.iter
    (fun (module M : Scheme.S) ->
      if String.length M.description < 10 then
        Alcotest.failf "%s: description too short for the README table"
          M.name)
    (Scheme.all ())

(* ------------------------------------------------------------------ *)
(* Grep enforcement: no backend match arms outside the adapter module   *)
(* ------------------------------------------------------------------ *)

let no_backend_match_outside_adapters () =
  match Source_tree.root (Sys.getcwd ()) with
  | None ->
      (* outside a checkout (e.g. an installed test binary): nothing to scan *)
      print_endline "source tree not found; skipping scan"
  | Some root ->
      let allow =
        [ "lib/core/scheme.ml"; "lib/core/scheme.mli"; "lib/core/pipeline.mli" ]
        |> List.map (Filename.concat root)
      in
      let constructors =
        [ "Plain_lsq"; "Fast_lsq"; "Prevv"; "Oracle"; "Serial";
          "backend_handle"; "Lsq_handle"; "Prevv_handle" ]
      in
      let offenders = ref [] in
      List.iter
        (fun sub ->
          let dir = Filename.concat root sub in
          if Sys.file_exists dir then
            List.iter
              (fun file ->
                if not (List.mem file allow) then begin
                  let ic = open_in file in
                  let lineno = ref 0 in
                  (try
                     while true do
                       let line = input_line ic in
                       incr lineno;
                       let t = String.trim line in
                       (* a match arm: leading "|", naming a backend
                          constructor; " of " exempts variant declarations
                          (the re-exported type equation) *)
                       if
                         String.length t > 0
                         && t.[0] = '|'
                         && (not (contains ~needle:" of " t))
                         && List.exists
                              (fun c -> contains ~needle:c t)
                              constructors
                       then
                         offenders :=
                           Printf.sprintf "%s:%d: %s" file !lineno t
                           :: !offenders
                     done
                   with End_of_file -> ());
                  close_in ic
                end)
              (Source_tree.ml_files dir))
        [ "lib"; "bin"; "bench"; "test"; "examples" ];
      match !offenders with
      | [] -> ()
      | o ->
          Alcotest.failf
            "backend match arms outside the scheme adapter module:\n%s"
            (String.concat "\n" (List.rev o))

(* ------------------------------------------------------------------ *)
(* Differential acceptance: the bound chain on every paper kernel       *)
(* ------------------------------------------------------------------ *)

let differential_paper_kernels () =
  List.iter
    (fun kernel ->
      let r = Differential.run kernel in
      if not (Differential.ok r) then
        Alcotest.failf "differential harness failed:@\n%a" Differential.pp r)
    (Pv_kernels.Defs.paper_benchmarks ())

(* The reference bounds' cycles on the paper kernels, pinned: the oracle
   walks the kernel for its prescience and both bounds run on flat tables,
   and neither may move a cycle. *)
let bound_cycles_pinned () =
  let pinned =
    [
      ("polyn_mult", 2321, 27658);
      ("2mm", 2021, 26043);
      ("3mm", 2207, 29910);
      ("gaussian", 2504, 51880);
      ("triangular", 2619, 31212);
    ]
  in
  List.iter
    (fun kernel ->
      let name = kernel.Pv_kernels.Ast.name in
      let oracle, serial =
        match List.find_opt (fun (n, _, _) -> n = name) pinned with
        | Some (_, o, s) -> (o, s)
        | None -> Alcotest.failf "no pinned cycles for %s" name
      in
      let compiled = Pipeline.compile kernel in
      let cycles dis = (Pipeline.simulate compiled dis).Pipeline.cycles in
      Alcotest.(check int) (name ^ "/oracle") oracle (cycles Scheme.oracle);
      Alcotest.(check int) (name ^ "/serial") serial (cycles Scheme.serial))
    (Pv_kernels.Defs.paper_benchmarks ())

(* Golden backend pin: cycles, all thirteen memory-system stats (loads,
   stores, squashes, replayed, stall_full/alloc/order/bw, forwarded, fake
   tokens, max_occupancy, faults, degraded) and the PreVV arbiter tallies
   (checks, violations, gate clear/forward/wait) of the LSQ and PreVV
   backends, on the paper kernels and on squash-heavy storm sizes.  Both
   backends run on flat per-seq and per-array tables; a rewrite of either
   may not move one of these numbers. *)
let backend_cells_pinned () =
  let pinned =
    [
    ("polyn_mult", "dynamatic", 2407, [| 6912; 2304; 0; 0; 71; 71; 0; 0; 0; 0; 59; 0; 0 |], [| 0; 0; 0; 0; 0 |]);
    ("polyn_mult", "fast-lsq", 2321, [| 6912; 2304; 0; 0; 0; 0; 0; 0; 0; 0; 29; 0; 0 |], [| 0; 0; 0; 0; 0 |]);
    ("polyn_mult", "prevv16", 2321, [| 6912; 2304; 0; 0; 0; 0; 0; 0; 0; 0; 9; 0; 0 |], [| 2304; 0; 2304; 0; 0 |]);
    ("polyn_mult", "prevv64", 2321, [| 6912; 2304; 0; 0; 0; 0; 0; 0; 0; 0; 9; 0; 0 |], [| 2304; 0; 2304; 0; 0 |]);
    ("2mm", "dynamatic", 2749, [| 6000; 2000; 0; 0; 715; 715; 0; 0; 0; 0; 64; 0; 0 |], [| 0; 0; 0; 0; 0 |]);
    ("2mm", "fast-lsq", 2021, [| 6000; 2000; 0; 0; 0; 0; 0; 0; 0; 0; 50; 0; 0 |], [| 0; 0; 0; 0; 0 |]);
    ("2mm", "prevv16", 2021, [| 6000; 2000; 0; 0; 0; 0; 0; 0; 0; 0; 16; 0; 0 |], [| 2000; 0; 3000; 0; 0 |]);
    ("2mm", "prevv64", 2021, [| 6000; 2000; 0; 0; 0; 0; 0; 0; 0; 0; 16; 0; 0 |], [| 2000; 0; 3000; 0; 0 |]);
    ("3mm", "dynamatic", 3503, [| 6561; 2187; 0; 0; 1282; 1282; 0; 0; 0; 0; 64; 0; 0 |], [| 0; 0; 0; 0; 0 |]);
    ("3mm", "fast-lsq", 2496, [| 6561; 2187; 0; 0; 288; 288; 0; 0; 0; 0; 53; 0; 0 |], [| 0; 0; 0; 0; 0 |]);
    ("3mm", "prevv16", 2208, [| 6561; 2187; 0; 0; 0; 0; 0; 0; 0; 0; 17; 0; 0 |], [| 2187; 0; 3645; 0; 0 |]);
    ("3mm", "prevv64", 2208, [| 6561; 2187; 0; 0; 0; 0; 0; 0; 0; 0; 17; 0; 0 |], [| 2187; 0; 3645; 0; 0 |]);
    ("gaussian", "dynamatic", 8681, [| 9880; 2470; 0; 0; 6165; 6165; 36; 5049; 5; 0; 46; 0; 0 |], [| 0; 0; 0; 0; 0 |]);
    ("gaussian", "fast-lsq", 4972, [| 9880; 2470; 0; 0; 2467; 2467; 74; 24704; 12; 0; 46; 0; 0 |], [| 0; 0; 0; 0; 0 |]);
    ("gaussian", "prevv16", 6221, [| 9884; 2470; 1; 6; 9861; 0; 0; 4942; 0; 0; 32; 0; 0 |], [| 2470; 1; 24687; 0; 0 |]);
    ("gaussian", "prevv64", 4993, [| 9886; 2470; 2; 41; 0; 0; 0; 4944; 0; 0; 47; 0; 0 |], [| 2470; 2; 14830; 0; 0 |]);
    ("triangular", "dynamatic", 2713, [| 7800; 2600; 0; 0; 81; 81; 0; 0; 0; 0; 59; 0; 0 |], [| 0; 0; 0; 0; 0 |]);
    ("triangular", "fast-lsq", 2619, [| 7800; 2600; 0; 0; 0; 0; 0; 0; 0; 0; 33; 0; 0 |], [| 0; 0; 0; 0; 0 |]);
    ("triangular", "prevv16", 2619, [| 7800; 2600; 0; 0; 0; 0; 0; 0; 0; 0; 9; 0; 0 |], [| 2600; 0; 2600; 0; 0 |]);
    ("triangular", "prevv64", 2619, [| 7800; 2600; 0; 0; 0; 0; 0; 0; 0; 0; 9; 0; 0 |], [| 2600; 0; 2600; 0; 0 |]);
    ("matvec", "prevv16", 45187, [| 65843; 2304; 2256; 20699; 0; 0; 1872; 0; 0; 0; 11; 0; 0 |], [| 2304; 2256; 20700; 0; 1872 |]);
    ("matvec", "fast-lsq", 11347, [| 6912; 2304; 0; 0; 8884; 8884; 319711; 0; 2256; 0; 63; 0; 0 |], [| 0; 0; 0; 0; 0 |]);
    ("histogram", "prevv16", 2069, [| 4096; 2048; 0; 0; 0; 0; 0; 0; 0; 0; 16; 0; 0 |], [| 2048; 0; 4096; 0; 0 |]);
    ("histogram", "fast-lsq", 6161, [| 4096; 2048; 0; 0; 4062; 4062; 96899; 1023; 0; 0; 49; 0; 0 |], [| 0; 0; 0; 0; 0 |]);
    ("spmv_like", "prevv16", 2069, [| 12288; 2048; 0; 0; 0; 0; 0; 0; 0; 0; 9; 0; 0 |], [| 2048; 0; 2048; 0; 0 |]);
    ("spmv_like", "fast-lsq", 2069, [| 12288; 2048; 0; 0; 0; 0; 0; 0; 0; 0; 37; 0; 0 |], [| 0; 0; 0; 0; 0 |]);
    ("cond_update", "prevv16", 2073, [| 6252; 1051; 0; 0; 0; 0; 0; 0; 0; 1994; 7; 0; 0 |], [| 1051; 0; 1051; 0; 0 |]);
    ("cond_update", "fast-lsq", 2073, [| 6252; 1051; 0; 0; 0; 0; 0; 0; 0; 1994; 51; 0; 0 |], [| 0; 0; 0; 0; 0 |])
    ]
  in
  let module D = Pv_kernels.Defs in
  let kernels =
    D.paper_benchmarks ()
    @ [ D.matvec ~n:48 (); D.histogram ~n:1024 (); D.spmv_like ~n:2048 ();
        D.cond_update ~n:2048 () ]
  in
  let compiled = Hashtbl.create 16 in
  List.iter
    (fun (kname, scheme, cycles, stats, arbiter) ->
      let cell = kname ^ "/" ^ scheme in
      let c =
        match Hashtbl.find_opt compiled kname with
        | Some c -> c
        | None ->
            let k =
              List.find (fun k -> k.Pv_kernels.Ast.name = kname) kernels
            in
            let c = Pipeline.compile k in
            Hashtbl.replace compiled kname c;
            c
      in
      let dis = Result.get_ok (Scheme.of_string scheme) in
      let metrics = Pv_obs.Metrics.create () in
      let r = Pipeline.simulate ~metrics c dis in
      let s = r.Pipeline.mem_stats in
      let arb n =
        Pv_obs.Metrics.counter_value metrics ("scheme.prevv.arbiter." ^ n)
      in
      Alcotest.(check int) (cell ^ " cycles") cycles r.Pipeline.cycles;
      Alcotest.(check (array int))
        (cell ^ " memory stats") stats
        Pv_dataflow.Memif.
          [|
            s.loads; s.stores; s.squashes; s.replayed_ops; s.stall_full;
            s.stall_alloc; s.stall_order; s.stall_bw; s.forwarded;
            s.fake_tokens; s.max_occupancy; s.faults; s.degraded;
          |];
      Alcotest.(check (array int))
        (cell ^ " arbiter stats") arbiter
        (Array.map arb
           [| "checks"; "violations"; "gate_clear"; "gate_forward"; "gate_wait" |]);
      Alcotest.(check int)
        (cell ^ " memory verified") 0
        (List.length (Pipeline.verify c r)))
    pinned

let () =
  Alcotest.run "scheme"
    [
      ( "names",
        [
          QCheck_alcotest.to_alcotest roundtrip;
          Alcotest.test_case "registry names round-trip" `Quick
            registry_roundtrip;
          Alcotest.test_case "bogus names rejected" `Quick bogus_names;
          Alcotest.test_case "aliases" `Quick aliases;
        ] );
      ( "registry",
        [
          Alcotest.test_case "fingerprints distinct & stable" `Quick
            fingerprints_distinct;
          Alcotest.test_case "registration order & family names" `Quick
            registry_shape;
          Alcotest.test_case "descriptions usable" `Quick descriptions;
        ] );
      ( "encapsulation",
        [
          Alcotest.test_case "no match on backends outside adapters" `Quick
            no_backend_match_outside_adapters;
        ] );
      ( "bound chain",
        [
          Alcotest.test_case "oracle <= prevv <= dynamatic <= serial" `Quick
            differential_paper_kernels;
          Alcotest.test_case "oracle and serial cycles pinned" `Quick
            bound_cycles_pinned;
          Alcotest.test_case "LSQ and PreVV cells pinned" `Quick
            backend_cells_pinned;
        ] );
    ]
