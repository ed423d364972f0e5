(* Truth-table tests for the arbiter's validation rule (Eqs. 2-5) and the
   load admission gate. *)

open Pv_prevv
module PQ = Premature_queue
module PM = Pv_memory.Portmap

let queue_with entries =
  let q = PQ.create 16 in
  List.iter
    (fun (seq, pos, kind, index, value) ->
      if not (PQ.record q ~seq ~pos ~port:0 ~kind ~index ~value) then
        Alcotest.fail "queue full")
    entries;
  q

(* A store P_m arriving at the arbiter; entries are (seq,pos,kind,idx,val). *)
let violation entries ~seq ~pos ~index ~value =
  Arbiter.store_violation (queue_with entries) ~seq ~pos ~index ~value

let some = Alcotest.(option int)

(* Eq. 2-5 all satisfied: older store vs younger load, same index,
   different value -> squash at the load's iteration *)
let test_violation_hit () =
  Alcotest.check some "younger load exposed" (Some 7)
    (violation [ (7, 0, PM.OLoad, 100, 5) ] ~seq:3 ~pos:0 ~index:100 ~value:9)

(* Eq. 5 fails: same value means the premature load was right anyway *)
let test_value_match_no_violation () =
  Alcotest.check some "value validation passes" None
    (violation [ (7, 0, PM.OLoad, 100, 9) ] ~seq:3 ~pos:0 ~index:100 ~value:9)

(* Eq. 4 fails: different index *)
let test_index_mismatch () =
  Alcotest.check some "different address" None
    (violation [ (7, 0, PM.OLoad, 101, 5) ] ~seq:3 ~pos:0 ~index:100 ~value:9)

(* Eq. 3 fails: two stores never form a violation *)
let test_same_kind () =
  Alcotest.check some "store vs store" None
    (violation [ (7, 0, PM.OStore, 100, 5) ] ~seq:3 ~pos:0 ~index:100 ~value:9)

(* Eq. 2 fails: the queued load is older than the arriving store *)
let test_older_load_safe () =
  Alcotest.check some "older load untouched" None
    (violation [ (2, 0, PM.OLoad, 100, 5) ] ~seq:3 ~pos:0 ~index:100 ~value:9)

(* earliest erring iteration wins when several loads are wrong *)
let test_min_seq_err () =
  Alcotest.check some "earliest iter_err" (Some 5)
    (violation
       [ (9, 0, PM.OLoad, 100, 5); (5, 0, PM.OLoad, 100, 6); (7, 0, PM.OLoad, 100, 7) ]
       ~seq:3 ~pos:0 ~index:100 ~value:9)

(* same iteration: the ROM position is the tie-break (end of Sec. III) *)
let test_same_iteration_rom_order () =
  (* store at position 1, load at position 3 of the same iteration: the
     load should have seen the store's value -> violation *)
  Alcotest.check some "same-iter store-before-load" (Some 4)
    (violation [ (4, 3, PM.OLoad, 100, 5) ] ~seq:4 ~pos:1 ~index:100 ~value:9);
  (* accumulation order (load pos 0, store pos 1): no violation *)
  Alcotest.check some "same-iter load-before-store" None
    (violation [ (4, 0, PM.OLoad, 100, 5) ] ~seq:4 ~pos:1 ~index:100 ~value:9)

(* invalidated entries are ignored by the search *)
let test_invalid_entries_skipped () =
  let q = queue_with [ (7, 0, PM.OLoad, 100, 5) ] in
  ignore (PQ.retire_ge q ~seq:0 ~on_port:ignore : int);
  Alcotest.check some "empty after invalidation" None
    (Arbiter.store_violation q ~seq:3 ~pos:0 ~index:100 ~value:9)

(* --- load gate -------------------------------------------------------------- *)

let gate entries ~seq ~pos ~index =
  Arbiter.load_gate (queue_with entries) ~seq ~pos ~index

let gate_t =
  Alcotest.testable
    (fun ppf -> function
      | Arbiter.Clear -> Format.pp_print_string ppf "Clear"
      | Arbiter.Wait -> Format.pp_print_string ppf "Wait"
      | Arbiter.Forward v -> Format.fprintf ppf "Forward %d" v)
    ( = )

let test_gate_clear () =
  Alcotest.check gate_t "no conflicting store" Arbiter.Clear
    (gate [ (2, 0, PM.OStore, 50, 1) ] ~seq:5 ~pos:0 ~index:100);
  Alcotest.check gate_t "younger store ignored" Arbiter.Clear
    (gate [ (9, 0, PM.OStore, 100, 1) ] ~seq:5 ~pos:0 ~index:100)

let test_gate_wait () =
  Alcotest.check gate_t "older uncommitted store" Arbiter.Wait
    (gate [ (2, 0, PM.OStore, 100, 1) ] ~seq:5 ~pos:0 ~index:100)

let test_gate_forward () =
  Alcotest.check gate_t "same-iteration earlier store forwards"
    (Arbiter.Forward 77)
    (gate [ (5, 0, PM.OStore, 100, 77) ] ~seq:5 ~pos:2 ~index:100)

let test_gate_youngest_older_wins () =
  (* two older stores to the same address: the youngest decides *)
  Alcotest.check gate_t "youngest older store decides" Arbiter.Wait
    (gate
       [ (5, 0, PM.OStore, 100, 1); (2, 0, PM.OStore, 100, 2) ]
       ~seq:7 ~pos:0 ~index:100);
  Alcotest.check gate_t "same-seq store closest" (Arbiter.Forward 9)
    (gate
       [ (2, 0, PM.OStore, 100, 1); (7, 0, PM.OStore, 100, 9) ]
       ~seq:7 ~pos:3 ~index:100)

(* regression: two same-index stores in ONE iteration — forwarding must
   take the youngest store still older than the load in ROM order (the
   last write the load may observe), not the oldest, and not whichever
   happened to arrive in the queue first *)
let test_gate_two_stores_same_iteration () =
  Alcotest.check gate_t "latest same-iter store forwards" (Arbiter.Forward 8)
    (gate
       [ (5, 0, PM.OStore, 100, 3); (5, 2, PM.OStore, 100, 8) ]
       ~seq:5 ~pos:4 ~index:100);
  (* premature arrivals are unordered: swapping queue order must not
     change the winner *)
  Alcotest.check gate_t "arrival order is irrelevant" (Arbiter.Forward 8)
    (gate
       [ (5, 2, PM.OStore, 100, 8); (5, 0, PM.OStore, 100, 3) ]
       ~seq:5 ~pos:4 ~index:100);
  (* a same-iteration store AFTER the load in ROM order does not qualify *)
  Alcotest.check gate_t "later store ignored" (Arbiter.Forward 3)
    (gate
       [ (5, 0, PM.OStore, 100, 3); (5, 6, PM.OStore, 100, 8) ]
       ~seq:5 ~pos:4 ~index:100)

(* property: the gate agrees with a reference "youngest qualifying store"
   over arbitrary queues (permutation-insensitive) *)
let prop_gate_youngest =
  let entry_gen =
    QCheck.(
      quad (int_range 0 4) (int_range 0 3) bool (pair (int_range 0 2) (int_range 0 99)))
  in
  QCheck.Test.make ~count:500 ~name:"load gate takes the youngest older store"
    QCheck.(pair (list_of_size Gen.(int_range 0 8) entry_gen)
              (pair (int_range 0 4) (int_range 0 3)))
    (fun (raw, (seq, pos)) ->
      (* one record per (seq, pos): the backend never holds two records of
         one ROM slot, and a duplicate key would make the youngest-store
         tie-break depend on arrival order *)
      let seen = Hashtbl.create 16 in
      let entries =
        List.filter_map
          (fun (s, p, is_store, (idx, v)) ->
            if Hashtbl.mem seen (s, p) then None
            else begin
              Hashtbl.add seen (s, p) ();
              Some (s, p, (if is_store then PM.OStore else PM.OLoad), idx, v)
            end)
          raw
      in
      let index = 1 in
      let got = gate entries ~seq ~pos ~index in
      let qualifying =
        List.filter
          (fun (s, p, k, i, _) ->
            k = PM.OStore && i = index
            && (s < seq || (s = seq && p < pos)))
          entries
      in
      let expect =
        match qualifying with
        | [] -> Arbiter.Clear
        | l ->
            let bs, _, _, _, bv =
              List.fold_left
                (fun ((bs, bp, _, _, _) as b) ((s, p, _, _, _) as e) ->
                  if s > bs || (s = bs && p > bp) then e else b)
                (List.hd l) (List.tl l)
            in
            if bs = seq then Arbiter.Forward bv else Arbiter.Wait
      in
      got = expect)

(* property: a violation requires all four conditions at once *)
let prop_violation_iff_conditions =
  QCheck.Test.make ~count:500 ~name:"Eqs. 2-5 are necessary and sufficient"
    QCheck.(
      tup4 (pair (int_range 0 9) (int_range 0 3))
        (pair (int_range 0 9) (int_range 0 3))
        (pair (int_range 0 3) (int_range 0 3))
        (pair bool (pair (int_range 0 3) (int_range 0 3))))
    (fun ((m_seq, m_pos), (n_seq, n_pos), (m_idx, n_idx), (n_is_load, (m_val, n_val))) ->
      let kind = if n_is_load then PM.OLoad else PM.OStore in
      let got =
        violation
          [ (n_seq, n_pos, kind, n_idx, n_val) ]
          ~seq:m_seq ~pos:m_pos ~index:m_idx ~value:m_val
      in
      let older = m_seq < n_seq || (m_seq = n_seq && m_pos < n_pos) in
      let expect =
        if n_is_load && older && m_idx = n_idx && m_val <> n_val then Some n_seq
        else None
      in
      got = expect)

(* property: the view-scanning fast paths agree with the whole-queue
   reference folds on random queue contents, including interleaved
   retirements (which exercise the kind views through swap-removal and
   compaction).  Entries are deduplicated by (seq, pos): the backend never
   holds two records of one ROM slot, and forwarding ties between
   duplicate keys would otherwise be resolved by arrival order in one
   implementation and view order in the other. *)
let prop_fast_matches_ref =
  let entry_gen =
    QCheck.(
      pair
        (quad (int_range 0 4) (int_range 0 3) bool
           (pair (int_range 0 2) (int_range 0 99)))
        bool)
  in
  QCheck.Test.make ~count:1000 ~name:"view scans = whole-queue reference folds"
    QCheck.(
      pair
        (list_of_size Gen.(int_range 0 12) entry_gen)
        (tup4 (int_range 0 5) (int_range 0 3) (int_range 0 2) (int_range 0 99)))
    (fun (raw, (seq, pos, index, value)) ->
      let q = PQ.create 16 in
      let seen = Hashtbl.create 16 in
      List.iter
        (fun ((s, p, is_store, (idx, v)), retire) ->
          if not (Hashtbl.mem seen (s, p)) then begin
            Hashtbl.add seen (s, p) ();
            ignore
              (PQ.record q ~seq:s ~pos:p ~port:0
                 ~kind:(if is_store then PM.OStore else PM.OLoad)
                 ~index:idx ~value:v);
            if retire then ignore (PQ.retire_eq q ~seq:s ~on_port:ignore)
          end)
        raw;
      Arbiter.store_violation q ~seq ~pos ~index ~value
      = Arbiter.store_violation_ref q ~seq ~pos ~index ~value
      && Arbiter.load_gate q ~seq ~pos ~index
         = Arbiter.load_gate_ref q ~seq ~pos ~index)

(* property: watermark-gated retirement sweeps leave the queue in exactly
   the state per-cycle full rescans produce, at every step of a random
   schedule of load admissions, frontier advances and squash rewinds.
   [qi] sweeps only when {!Arbiter.wm_pending} fires; [qr] rescans every
   step.  Any missing wm_note_load/wm_rewind hook (a stale watermark)
   shows up as a load left unretired in [qi]. *)
let prop_watermark_equiv =
  let op_gen =
    QCheck.Gen.(
      frequency
        [
          (5, map2 (fun d i -> `Load (d, i)) (int_range 0 6) (int_range 0 3));
          (3, map (fun d -> `Advance d) (int_range 0 2));
          (1, map (fun d -> `Squash d) (int_range 0 3));
        ])
  in
  QCheck.Test.make ~count:500
    ~name:"incremental watermark sweeps = per-cycle rescans"
    (QCheck.make QCheck.Gen.(list_size (int_range 0 40) op_gen))
    (fun ops ->
      let qi = PQ.create 64 and qr = PQ.create 64 in
      let wm = Arbiter.fresh_watermark () in
      let saf = ref 0 in
      let contents q =
        List.rev
          (PQ.fold
             (fun acc (e : PQ.entry) ->
               (e.PQ.e_seq, e.PQ.e_pos, e.PQ.e_index, e.PQ.e_value) :: acc)
             [] q)
      in
      List.for_all
        (fun op ->
          (match op with
          | `Load (d, idx) ->
              (* admissions land anywhere from behind the frontier (a late
                 load, immediately retirable) to well ahead of it *)
              let seq = max 0 (!saf - 2 + d) in
              if
                PQ.record qi ~seq ~pos:0 ~port:0 ~kind:PM.OLoad ~index:idx
                  ~value:(idx * 7)
              then begin
                ignore
                  (PQ.record qr ~seq ~pos:0 ~port:0 ~kind:PM.OLoad ~index:idx
                     ~value:(idx * 7));
                Arbiter.wm_note_load wm ~seq ~saf:!saf
              end
          | `Advance d -> saf := !saf + d
          | `Squash d ->
              let err = max 0 (!saf - d) in
              ignore (PQ.retire_ge qi ~seq:err ~on_port:ignore);
              ignore (PQ.retire_ge qr ~seq:err ~on_port:ignore);
              if err < !saf then saf := err;
              Arbiter.wm_rewind wm ~saf:!saf);
          if Arbiter.wm_pending wm ~saf:!saf then begin
            ignore (PQ.retire_loads_below qi ~seq:!saf ~on_port:ignore);
            Arbiter.wm_mark wm ~saf:!saf
          end;
          ignore (PQ.retire_loads_below qr ~seq:!saf ~on_port:ignore);
          contents qi = contents qr)
        ops)

let () =
  Alcotest.run "pv_arbiter"
    [
      ( "validation",
        [
          Alcotest.test_case "violation hit" `Quick test_violation_hit;
          Alcotest.test_case "value match (Eq. 5)" `Quick
            test_value_match_no_violation;
          Alcotest.test_case "index mismatch (Eq. 4)" `Quick test_index_mismatch;
          Alcotest.test_case "same kind (Eq. 3)" `Quick test_same_kind;
          Alcotest.test_case "older load safe (Eq. 2)" `Quick test_older_load_safe;
          Alcotest.test_case "min iter_err" `Quick test_min_seq_err;
          Alcotest.test_case "same-iteration ROM order" `Quick
            test_same_iteration_rom_order;
          Alcotest.test_case "invalidated entries skipped" `Quick
            test_invalid_entries_skipped;
        ] );
      ( "load gate",
        [
          Alcotest.test_case "clear" `Quick test_gate_clear;
          Alcotest.test_case "wait" `Quick test_gate_wait;
          Alcotest.test_case "forward" `Quick test_gate_forward;
          Alcotest.test_case "youngest older wins" `Quick
            test_gate_youngest_older_wins;
          Alcotest.test_case "two stores, one iteration" `Quick
            test_gate_two_stores_same_iteration;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_violation_iff_conditions;
          QCheck_alcotest.to_alcotest prop_gate_youngest;
          QCheck_alcotest.to_alcotest prop_fast_matches_ref;
          QCheck_alcotest.to_alcotest prop_watermark_equiv;
        ] );
    ]
