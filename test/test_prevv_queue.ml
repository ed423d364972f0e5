(* Tests for the premature queue (Sec. IV-B / Fig. 4): circular pointer
   behaviour, collapse on out-of-order retirement, and a FIFO-model
   property. *)

open Pv_prevv
module PQ = Premature_queue
module PM = Pv_memory.Portmap

let record q ?(kind = PM.OStore) ?(pos = 0) ?(port = 0) ?(index = 0)
    ?(value = 0) seq =
  PQ.record q ~seq ~pos ~port ~kind ~index ~value

let push q ?kind ?pos ?port ?index ?value seq =
  if not (record q ?kind ?pos ?port ?index ?value seq) then
    Alcotest.failf "record of seq %d refused" seq

let entries q = List.rev (PQ.fold (fun acc e -> e :: acc) [] q)
let seqs q = List.map (fun e -> e.PQ.e_seq) (entries q)

(* commit of an instance / pipeline squash, ports ignored *)
let retire q s = ignore (PQ.retire_eq q ~seq:s ~on_port:ignore : int)
let squash q s = ignore (PQ.retire_ge q ~seq:s ~on_port:ignore : int)

let test_empty_full () =
  let q = PQ.create 4 in
  Alcotest.(check bool) "empty" true (PQ.is_empty q);
  Alcotest.(check bool) "state" true (PQ.state q = `Empty);
  for s = 0 to 3 do push q s done;
  Alcotest.(check bool) "full" true (PQ.is_full q);
  Alcotest.(check bool) "state full" true (PQ.state q = `Full);
  Alcotest.(check bool) "record on full refused" false (record q 4);
  Alcotest.(check (list int)) "and nothing admitted" [ 0; 1; 2; 3 ] (seqs q)

let test_fig4_states () =
  let q = PQ.create 8 in
  for s = 0 to 4 do push q s done;
  Alcotest.(check bool) "normal" true (PQ.state q = `Normal);
  List.iter (retire q) [ 0; 1; 2 ];
  Alcotest.(check int) "head advanced" 3 q.PQ.head;
  for s = 5 to 9 do push q s done;
  Alcotest.(check bool) "wrapped" true (PQ.state q = `Wrapped);
  Alcotest.(check bool) "tail behind head" true (q.PQ.tail < q.PQ.head)

let test_arrival_order_preserved () =
  let q = PQ.create 8 in
  List.iter (push q) [ 5; 2; 7; 1 ];
  Alcotest.(check (list int)) "arrival order" [ 5; 2; 7; 1 ] (seqs q)

let test_collapse_reclaims_middle () =
  (* retire an entry that is NOT at the head: the slot must be reclaimed *)
  let q = PQ.create 4 in
  List.iter (push q) [ 10; 11; 12; 13 ];
  Alcotest.(check bool) "full before" true (PQ.is_full q);
  retire q 12;
  Alcotest.(check int) "occupancy dropped" 3 (PQ.occupancy q);
  Alcotest.(check bool) "no longer full" true (not (PQ.is_full q));
  push q 14;
  Alcotest.(check (list int)) "order preserved after collapse" [ 10; 11; 13; 14 ]
    (seqs q)

let test_retire_ge () =
  let q = PQ.create 8 in
  List.iter (push q) [ 1; 5; 2; 6; 3 ];
  squash q 4;
  Alcotest.(check (list int)) "only older survive" [ 1; 2; 3 ] (seqs q)

(* each sweep reports every retiree's port (for per-port credit release)
   and returns the count *)
let test_retire_reports_ports () =
  let q = PQ.create 8 in
  push q ~kind:PM.OLoad ~port:3 4;
  push q ~kind:PM.OStore ~port:5 4;
  push q ~kind:PM.OLoad ~port:3 5;
  push q ~kind:PM.OLoad ~port:2 6;
  let ports = ref [] in
  let on_port p = ports := p :: !ports in
  Alcotest.(check int) "instance 4 retires two" 2
    (PQ.retire_eq q ~seq:4 ~on_port);
  Alcotest.(check (list int)) "its ports" [ 3; 5 ] (List.sort compare !ports);
  ports := [];
  Alcotest.(check int) "loads below 6" 1
    (PQ.retire_loads_below q ~seq:6 ~on_port);
  Alcotest.(check (list int)) "their port" [ 3 ] !ports;
  Alcotest.(check (list int)) "the youngest load remains" [ 6 ] (seqs q)

let test_wrap_stress () =
  (* continuous push/retire cycling through the buffer many times *)
  let q = PQ.create 5 in
  for s = 0 to 99 do
    push q s;
    if s >= 3 then retire q (s - 3)
  done;
  (* pushes 0..99, retires 0..96 *)
  Alcotest.(check (list int)) "last three remain" [ 97; 98; 99 ] (seqs q)

let test_wrapped_to_full () =
  (* Fig. 4 full transition sequence: Empty → Normal → Wrapped → Full,
     then drain back to Empty *)
  let q = PQ.create 4 in
  Alcotest.(check bool) "starts empty" true (PQ.state q = `Empty);
  List.iter (push q) [ 0; 1; 2 ];
  Alcotest.(check bool) "normal region" true (PQ.state q = `Normal);
  retire q 0;
  retire q 1;
  push q 3;
  (* head at slot 2, tail wrapped to 0: the live region crosses the end *)
  Alcotest.(check bool) "wrapped" true (PQ.state q = `Wrapped);
  Alcotest.(check bool) "tail wrapped past head" true (q.PQ.tail <= q.PQ.head);
  push q 4;
  Alcotest.(check bool) "still wrapped" true (PQ.state q = `Wrapped);
  push q 5;
  Alcotest.(check bool) "full" true (PQ.state q = `Full);
  Alcotest.(check bool) "is_full" true (PQ.is_full q);
  List.iter (retire q) [ 2; 3; 4; 5 ];
  Alcotest.(check bool) "drained to empty" true (PQ.state q = `Empty)

let test_retire_behind_live_frees_slots () =
  (* commits follow program order but arrival order differs: retiring the
     older seq sitting BEHIND a younger live one must still free capacity *)
  let q = PQ.create 3 in
  List.iter (push q) [ 7; 5; 6 ];
  Alcotest.(check bool) "full before" true (PQ.is_full q);
  (* 5 and 6 retire first (program order) though they arrived after 7 *)
  retire q 5;
  retire q 6;
  Alcotest.(check int) "two slots reclaimed" 1 (PQ.occupancy q);
  push q 8;
  push q 9;
  Alcotest.(check (list int)) "live entries in arrival order" [ 7; 8; 9 ]
    (seqs q)

let test_fragmentation_without_collapse () =
  (* the naive pointer queue (ablation): interior retirees keep their slots
     until the head passes them, so out-of-order retirement fragments the
     queue and admission backpressures while mostly-dead *)
  let q = PQ.create ~collapse:false 4 in
  List.iter (push q) [ 0; 1; 2; 3 ];
  retire q 1;
  retire q 2;
  (* only the head entry (seq 0) and seq 3 are live, yet nothing freed *)
  Alcotest.(check int) "interior retirees still occupy" 4 (PQ.occupancy q);
  Alcotest.(check bool) "still full (fragmented)" true (PQ.is_full q);
  Alcotest.(check bool) "record backpressures" false (record q 4);
  Alcotest.(check (list int)) "live view hides dead slots" [ 0; 3 ] (seqs q);
  (* once the head retires, it sweeps past the dead interior in one go *)
  retire q 0;
  Alcotest.(check int) "head sweep reclaims the run" 1 (PQ.occupancy q);
  (* the collapsing queue frees the same slots immediately *)
  let c = PQ.create 4 in
  List.iter (push c) [ 0; 1; 2; 3 ];
  retire c 1;
  retire c 2;
  Alcotest.(check int) "collapse reclaims interior at once" 2 (PQ.occupancy c)

let test_record_backpressure () =
  let q = PQ.create 2 in
  Alcotest.(check bool) "first admitted" true (record q 0);
  Alcotest.(check bool) "second admitted" true (record q 1);
  Alcotest.(check bool) "full queue refuses without raising" false (record q 2);
  retire q 0;
  Alcotest.(check bool) "admits again after retire" true (record q 2)

let test_fault_hooks () =
  let q = PQ.create 8 in
  List.iteri (fun k s -> push q ~value:(100 + k) s) [ 4; 5; 6 ];
  let e = List.nth (entries q) 1 in
  Alcotest.(check int) "slot 1 is the second arrival" 5 e.PQ.e_seq;
  Alcotest.(check int) "value" 101 e.PQ.e_value;
  (* corrupt returns the ORIGINAL entry and leaves the flipped copy live *)
  (match PQ.corrupt q ~slot:1 ~mask:0xf with
  | Some e -> Alcotest.(check int) "corrupt returns original" 101 e.PQ.e_value
  | None -> Alcotest.fail "corrupt missed");
  Alcotest.(check (list int)) "value flipped in place"
    [ 100; 101 lxor 0xf; 102 ]
    (List.map (fun e -> e.PQ.e_value) (entries q));
  Alcotest.(check int) "corrupt keeps occupancy" 3 (PQ.occupancy q);
  Alcotest.(check bool) "corrupt out of range" true
    (PQ.corrupt q ~slot:9 ~mask:1 = None);
  (* drop erases the record as if never made *)
  (match PQ.drop q ~slot:0 with
  | Some e -> Alcotest.(check int) "drop returns the lost entry" 4 e.PQ.e_seq
  | None -> Alcotest.fail "drop missed");
  Alcotest.(check (list int)) "record gone" [ 5; 6 ] (seqs q);
  Alcotest.(check bool) "drop out of range" true (PQ.drop q ~slot:9 = None)

let test_create_guard () =
  Alcotest.check_raises "zero depth"
    (Invalid_argument "Premature_queue.create: depth must be > 0") (fun () ->
      ignore (PQ.create 0))

(* property: the queue behaves like a list-based FIFO-with-removal model *)
let prop_matches_model =
  let op_gen =
    QCheck.Gen.(
      frequency
        [
          (3, map (fun s -> `Push s) (int_range 0 50));
          (2, map (fun s -> `Retire s) (int_range 0 50));
          (1, map (fun s -> `InvalidateFrom s) (int_range 0 50));
        ])
  in
  QCheck.Test.make ~count:200 ~name:"queue matches FIFO-with-removal model"
    QCheck.(make Gen.(list_size (int_range 0 60) op_gen))
    (fun ops ->
      let q = PQ.create 8 in
      let model = ref [] in
      List.iter
        (fun op ->
          match op with
          | `Push s ->
              if List.length !model < 8 then begin
                push q s;
                model := !model @ [ s ]
              end
              else begin
                if record q s then raise Exit
              end
          | `Retire s ->
              retire q s;
              model := List.filter (fun x -> x <> s) !model
          | `InvalidateFrom s ->
              squash q s;
              model := List.filter (fun x -> x < s) !model)
        ops;
      seqs q = !model && PQ.occupancy q = List.length !model)

(* the order key packs the ROM position into 6 bits: position 63 is
   admitted and round-trips, 64 is rejected *)
let test_rom_position_limit () =
  let q = PQ.create 4 in
  Alcotest.(check bool) "position 63 admitted" true
    (record q ~kind:PM.OLoad ~pos:63 1);
  Alcotest.(check (list int)) "and kept" [ 63 ]
    (List.map (fun e -> e.PQ.e_pos) (entries q));
  Alcotest.check_raises "position 64"
    (Invalid_argument "Premature_queue: ROM position exceeds the 6-bit pack field")
    (fun () -> ignore (record q ~kind:PM.OLoad ~pos:64 1))

let () =
  Alcotest.run "pv_prevv_queue"
    [
      ( "queue",
        [
          Alcotest.test_case "empty/full" `Quick test_empty_full;
          Alcotest.test_case "Fig. 4 states" `Quick test_fig4_states;
          Alcotest.test_case "arrival order" `Quick test_arrival_order_preserved;
          Alcotest.test_case "collapse middle slot" `Quick
            test_collapse_reclaims_middle;
          Alcotest.test_case "retire_ge" `Quick test_retire_ge;
          Alcotest.test_case "retirement reports ports" `Quick
            test_retire_reports_ports;
          Alcotest.test_case "wrap stress" `Quick test_wrap_stress;
          Alcotest.test_case "wrapped to full (Fig. 4)" `Quick
            test_wrapped_to_full;
          Alcotest.test_case "retire behind live frees slots" `Quick
            test_retire_behind_live_frees_slots;
          Alcotest.test_case "fragmentation without collapse" `Quick
            test_fragmentation_without_collapse;
          Alcotest.test_case "record backpressure" `Quick
            test_record_backpressure;
          Alcotest.test_case "fault hooks" `Quick test_fault_hooks;
          Alcotest.test_case "create guard" `Quick test_create_guard;
          Alcotest.test_case "ROM position limit: 63, not 64" `Quick
            test_rom_position_limit;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_matches_model ]);
    ]
