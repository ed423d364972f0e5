(* The oracle's prescience, walked in program order, equals what a
   fault-free cycle-accurate replay under the fast LSQ records: the same
   operations executed, the same address and value for each, and the same
   youngest older store behind every load.  The replay recorder below is
   the reference implementation the walk replaced, kept here only as an
   oracle for the walk (like the arbiter's [_ref] scans). *)

open Pv_core
module P = Pv_bounds.Prescience
module Memif = Pv_dataflow.Memif
module Token = Pv_dataflow.Types.Token

(* --- reference: record a replay ------------------------------------------ *)

type replay = {
  loads : (int * int, int * int) Hashtbl.t;  (* (port, seq) -> (addr, value) *)
  stores : (int * int, int * int) Hashtbl.t;
  finished : bool;
}

(* Wrap [inner] so every accepted load/store is logged by (port, seq). *)
let recorder (inner : Memif.t) =
  let load_addr = Hashtbl.create 256
  and loads = Hashtbl.create 256
  and stores = Hashtbl.create 256 in
  let mif =
    {
      inner with
      Memif.load_req =
        (fun ~port ~key ~addr ->
          let ok = inner.Memif.load_req ~port ~key ~addr in
          if ok then Hashtbl.replace load_addr (port, Token.seq key) addr;
          ok);
      load_poll =
        (fun ~port out ->
          inner.Memif.load_poll ~port out
          &&
          let seq = Token.seq out.Memif.ls_key in
          (match Hashtbl.find_opt load_addr (port, seq) with
          | Some a -> Hashtbl.replace loads (port, seq) (a, out.Memif.ls_value)
          | None -> ());
          true);
      store_req =
        (fun ~port ~key ~addr ~value ->
          let ok = inner.Memif.store_req ~port ~key ~addr ~value in
          if ok then Hashtbl.replace stores (port, Token.seq key) (addr, value);
          ok);
    }
  in
  (loads, stores, mif)

let replay (c : Pipeline.compiled) mem =
  let inner =
    Pv_lsq.Lsq.create Pv_lsq.Lsq.fast c.Pipeline.info.Pv_frontend.Depend.portmap
      (Array.copy mem)
  in
  let loads, stores, mif = recorder inner in
  let outcome, _ = Pv_dataflow.Sim.run c.Pipeline.graph mif in
  let finished =
    match outcome with Pv_dataflow.Sim.Finished _ -> true | _ -> false
  in
  { loads; stores; finished }

(* Youngest store to [addr] strictly older than (seq, port) in the replay,
   as (seq, port); the reference for [P.youngest_older_store]. *)
let youngest_older_ref r ~addr ~seq ~port =
  Hashtbl.fold
    (fun (sp, ss) (a, _) best ->
      if a = addr && compare (ss, sp) (seq, port) < 0 then
        match best with
        | Some b when compare b (ss, sp) >= 0 -> best
        | _ -> Some (ss, sp)
      else best)
    r.stores None

(* --- the comparison ------------------------------------------------------- *)

let compiled_with ~cse kernel =
  Pipeline.compile
    ~options:{ Pv_frontend.Build.default_options with Pv_frontend.Build.cse }
    kernel

(* [Error msg] on the first difference between walk and replay. *)
let compare_tables ~label (c : Pipeline.compiled) init =
  let mem =
    Pv_memory.Layout.initial_memory c.Pipeline.layout c.Pipeline.kernel ~init
  in
  let r = replay c mem in
  let w =
    P.walk c.Pipeline.kernel c.Pipeline.info c.Pipeline.trace c.Pipeline.layout
      mem
  in
  let fail fmt = Printf.ksprintf (fun s -> Error (label ^ ": " ^ s)) fmt in
  if not r.finished then fail "the reference replay did not finish"
  else begin
    let n_ports = P.n_ports w in
    let diffs = ref [] in
    let bad fmt = Printf.ksprintf (fun s -> diffs := s :: !diffs) fmt in
    for seq = 0 to P.n_seq w - 1 do
      for port = 0 to n_ports - 1 do
        let s = P.slot w ~seq ~port in
        let want =
          match Hashtbl.find_opt r.loads (port, seq) with
          | Some x -> Some x
          | None -> Hashtbl.find_opt r.stores (port, seq)
        in
        match want with
        | None ->
            if P.recorded w s then bad "(seq %d, port %d) walked, not replayed" seq port
        | Some (a, v) ->
            if not (P.recorded w s) then
              bad "(seq %d, port %d) replayed, not walked" seq port
            else if P.addr w s <> a || P.value w s <> v then
              bad "(seq %d, port %d): walk (%d, %d), replay (%d, %d)" seq port
                (P.addr w s) (P.value w s) a v
      done
    done;
    Hashtbl.iter
      (fun (port, seq) (addr, _) ->
        let got = P.youngest_older_store w ~addr ~slot:(P.slot w ~seq ~port) in
        let want =
          match youngest_older_ref r ~addr ~seq ~port with
          | Some (ss, sp) -> P.slot w ~seq:ss ~port:sp
          | None -> -1
        in
        if got <> want then
          bad "load (seq %d, port %d): youngest older store slot %d, replay %d"
            seq port got want)
      r.loads;
    match !diffs with
    | [] -> Ok ()
    | d -> fail "%d differences, e.g. %s" (List.length d) (List.hd d)
  end

let check_ok = function Ok () -> () | Error m -> Alcotest.fail m

let bundled () =
  List.iter
    (fun kernel ->
      let init = Pv_kernels.Workload.default_init kernel in
      List.iter
        (fun cse ->
          check_ok
            (compare_tables
               ~label:(Printf.sprintf "%s (cse=%b)" kernel.Pv_kernels.Ast.name cse)
               (compiled_with ~cse kernel) init))
        [ false; true ])
    (Pv_kernels.Defs.all ())

(* Generated kernels with an indirect or conditional store — the shapes
   where program order and the circuit's firing order differ most. *)
let rec has_irregular_store = function
  | Pv_kernels.Ast.Store (_, ix, _) -> Pv_kernels.Ast.expr_loads [] ix <> []
  | Pv_kernels.Ast.If _ -> true
  | Pv_kernels.Ast.For { body; _ } -> List.exists has_irregular_store body

let prop_generated =
  QCheck.Test.make ~count:60
    ~name:"walk = fast-LSQ replay on generated irregular kernels"
    QCheck.(pair (int_range 0 100_000) bool)
    (fun (seed, cse) ->
      let kernel = Pv_kernels.Generate.kernel seed in
      QCheck.assume
        (List.exists has_irregular_store kernel.Pv_kernels.Ast.body);
      let init = Pv_kernels.Generate.init_for kernel seed in
      match
        compare_tables
          ~label:(Printf.sprintf "seed %d (cse=%b)" seed cse)
          (compiled_with ~cse kernel) init
      with
      | Ok () -> true
      | Error m -> QCheck.Test.fail_report m)

(* An address outside memory reads 0 and drops the write, as the backends'
   bounds checks do, and stays out of the by-address store index. *)
let out_of_bounds () =
  let open Pv_kernels.Ast in
  let k =
    {
      name = "oob";
      arrays = [ ("a", 2) ];
      params = [];
      body =
        [
          store "a" (i 5) (i 7);
          store "a" (i 0) (idx "a" (i 5) + i 1);
          store "a" (i 1) (idx "a" (i 0));
        ];
    }
  in
  let c = Pipeline.compile k in
  let w =
    P.walk c.Pipeline.kernel c.Pipeline.info c.Pipeline.trace c.Pipeline.layout
      [| 3; 4 |]
  in
  (* ports: 0 = store a[5]; 1 = load a[5], 2 = store a[0]; 3 = load a[0],
     4 = store a[1]; one instance per statement *)
  let at seq port = P.slot w ~seq ~port in
  Alcotest.(check int) "out-of-range store recorded" 5 (P.addr w (at 0 0));
  Alcotest.(check int) "out-of-range load reads 0" 0 (P.value w (at 1 1));
  Alcotest.(check int) "in-range store sees that 0" 1 (P.value w (at 1 2));
  Alcotest.(check int) "later load sees the in-range store" 1
    (P.value w (at 2 3));
  Alcotest.(check int) "no store indexed outside memory" (-1)
    (P.youngest_older_store w ~addr:5 ~slot:(at 1 1));
  Alcotest.(check int) "in-range store indexed" (at 1 2)
    (P.youngest_older_store w ~addr:0 ~slot:(at 2 3))

let () =
  Alcotest.run "prescience"
    [
      ( "walk = replay",
        [
          Alcotest.test_case "every bundled kernel, with and without CSE"
            `Quick bundled;
          QCheck_alcotest.to_alcotest prop_generated;
        ] );
      ("bounds", [ Alcotest.test_case "out-of-range addresses" `Quick out_of_bounds ]);
    ]
