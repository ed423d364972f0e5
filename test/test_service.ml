(* The prevv serve request/response protocol and its delivery
   invariants: parse round-trips, every accepted line gets exactly one
   response ([lost = 0]), parallel output is byte-identical to the serial
   replay, overload sheds explicitly instead of dropping, identical
   in-flight requests share
   one computation, a response leaves as soon as it and every earlier one
   are done, never concurrently with another line, and an [emit] failure
   on a worker domain surfaces from [Service.run] instead of hanging it. *)

open Pv_core

let quick_policy =
  {
    Supervisor.default_policy with
    Supervisor.base_delay_s = 0.0005;
    Supervisor.max_delay_s = 0.002;
  }

(* Run a fixed request list through the service, collecting responses;
   [emit] may run on worker domains, but never two at once. *)
let run_requests ?metrics config reqs =
  let remaining = ref (List.map Service.request_to_json reqs) in
  let next () =
    match !remaining with
    | [] -> None
    | l :: rest ->
        remaining := rest;
        Some l
  in
  let out = Buffer.create 4096 in
  let in_emit = Atomic.make false and overlapped = Atomic.make false in
  let summary =
    Service.run ?metrics config ~next ~emit:(fun line ->
        if Atomic.exchange in_emit true then Atomic.set overlapped true;
        (* widen the window an overlapping call would have to miss *)
        Unix.sleepf 0.0002;
        Buffer.add_string out line;
        Buffer.add_char out '\n';
        Atomic.set in_emit false)
  in
  Alcotest.(check bool) "emit never entered concurrently" false
    (Atomic.get overlapped);
  (Buffer.contents out, summary)

(* Poll [cond] until it holds or [seconds] pass; true if it held. *)
let wait_until ~seconds cond =
  let t0 = Unix.gettimeofday () in
  while (not (cond ())) && Unix.gettimeofday () -. t0 < seconds do
    Unix.sleepf 0.001
  done;
  cond ()

(* Distinct max_cycles make every request its own computation: no
   dedupe, no cache reuse — each one must reach a worker. *)
let cold_requests n =
  List.init n (fun i ->
      Service.request
        ~id:(Printf.sprintf "r%04d" i)
        ~kernel:"gaussian" ~backend:"prevv16"
        ~max_cycles:(100_000 + i) ())

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)
(* ------------------------------------------------------------------ *)

let test_parse_round_trip () =
  let r =
    Service.request ~id:"r1" ~kernel:"histogram" ~backend:"fast_lsq"
      ~engine:Pv_dataflow.Sim.Scan ~max_cycles:1234 ~fault_seed:7 ()
  in
  match Service.parse_request (Service.request_to_json r) with
  | Ok r' ->
      Alcotest.(check bool) "round-trips" true (r = r');
      Alcotest.(check string) "same key" (Service.request_key r)
        (Service.request_key r')
  | Error e -> Alcotest.failf "round-trip failed: %s" e

let test_parse_defaults_and_errors () =
  (match Service.parse_request {|{"id":"a","kernel":"matvec","backend":"prevv16"}|} with
  | Ok r ->
      Alcotest.(check bool) "engine defaults to event" true
        (r.Service.engine = Pv_dataflow.Sim.Event);
      Alcotest.(check bool) "optionals default to None" true
        (r.Service.max_cycles = None && r.Service.fault_seed = None)
  | Error e -> Alcotest.failf "minimal request rejected: %s" e);
  List.iter
    (fun (name, line) ->
      match Service.parse_request line with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s should not parse" name)
    [
      ("missing kernel", {|{"id":"a","backend":"prevv16"}|});
      ("ill-typed id", {|{"id":3,"kernel":"matvec","backend":"prevv16"}|});
      ("bad engine", {|{"id":"a","kernel":"matvec","backend":"prevv16","engine":"warp"}|});
      ("not json", "nonsense");
    ]

let test_request_key_ignores_id () =
  let a = Service.request ~id:"a" ~kernel:"matvec" ~backend:"prevv16" () in
  let b = Service.request ~id:"b" ~kernel:"matvec" ~backend:"prevv16" () in
  let c = Service.request ~id:"a" ~kernel:"matvec" ~backend:"prevv64" () in
  Alcotest.(check string) "id not part of the key" (Service.request_key a)
    (Service.request_key b);
  Alcotest.(check bool) "backend is" true
    (Service.request_key a <> Service.request_key c)

(* ------------------------------------------------------------------ *)
(* Delivery invariants                                                 *)
(* ------------------------------------------------------------------ *)

let test_parallel_matches_serial () =
  (* the same stream on 2 workers and inline: every line answered once,
     byte-identical to the serial replay *)
  let n = 60 in
  let reqs = cold_requests n in
  let config jobs =
    {
      Service.default_config with
      Service.jobs;
      Service.queue_capacity = 2 * n;  (* unoverflowable: no sheds *)
      Service.policy = quick_policy;
    }
  in
  let out_par, s_par = run_requests (config 2) reqs in
  Alcotest.(check int) "received" n s_par.Service.received;
  Alcotest.(check int) "responded = received" n s_par.Service.responded;
  Alcotest.(check int) "zero lost" 0 s_par.Service.lost;
  Alcotest.(check int) "no duplicates" n
    (List.length (String.split_on_char '\n' (String.trim out_par)));
  Alcotest.(check int) "nothing shed" 0 s_par.Service.shed;
  let out_ser, s_ser = run_requests (config 1) reqs in
  Alcotest.(check int) "serial zero lost" 0 s_ser.Service.lost;
  Alcotest.(check string) "byte-identical to serial replay" out_ser out_par

let test_overload_sheds_explicitly () =
  (* far more cold requests than a tiny queue can hold: the excess is
     shed with an explicit overloaded response, never silently *)
  let n = 30 in
  let config =
    {
      Service.default_config with
      Service.jobs = 2;
      Service.queue_capacity = 2;
      Service.policy = quick_policy;
    }
  in
  let out, s = run_requests config (cold_requests n) in
  Alcotest.(check int) "received" n s.Service.received;
  Alcotest.(check int) "responded = received" n s.Service.responded;
  Alcotest.(check int) "zero lost" 0 s.Service.lost;
  Alcotest.(check bool) "overload actually shed" true (s.Service.shed > 0);
  let shed_lines =
    List.filter
      (fun l -> l <> "" &&
        (match Pv_obs.Json.parse l with
        | Ok j ->
            Option.bind (Pv_obs.Json.member "status" j)
              Pv_obs.Json.to_string_opt
            = Some "overloaded"
        | Error _ -> false))
      (String.split_on_char '\n' out)
  in
  Alcotest.(check int) "every shed visible as a response line"
    s.Service.shed (List.length shed_lines);
  (* a shed line depends on the request id alone: no timing leaks in *)
  List.iter
    (fun l ->
      match Pv_obs.Json.parse l with
      | Ok j -> (
          match
            Option.bind (Pv_obs.Json.member "id" j) Pv_obs.Json.to_string_opt
          with
          | Some id ->
              Alcotest.(check string) "overloaded line bytes"
                (Printf.sprintf "{ \"id\": %S, \"status\": \"overloaded\" }" id)
                l
          | None -> Alcotest.failf "shed line lacks its id: %s" l)
      | Error e -> Alcotest.failf "shed line unparseable: %s" e)
    shed_lines

let test_dedup_in_flight () =
  (* identical requests (same key, different ids) share one computation;
     each still gets its own response line with its own id *)
  let n = 12 in
  let reqs =
    List.init n (fun i ->
        Service.request
          ~id:(Printf.sprintf "dup%02d" i)
          ~kernel:"matvec" ~backend:"prevv16" ~max_cycles:123_457 ())
  in
  let config =
    {
      Service.default_config with
      Service.jobs = 2;
      Service.queue_capacity = 2 * n;
      Service.policy = quick_policy;
    }
  in
  let out, s = run_requests config reqs in
  Alcotest.(check int) "responded = received" n s.Service.responded;
  Alcotest.(check int) "zero lost" 0 s.Service.lost;
  Alcotest.(check bool) "in-flight dedupe engaged" true (s.Service.dedup_hits > 0);
  let lines = String.split_on_char '\n' (String.trim out) in
  Alcotest.(check int) "one line per request" n (List.length lines);
  List.iteri
    (fun i line ->
      match Pv_obs.Json.parse line with
      | Ok j ->
          Alcotest.(check (option string))
            (Printf.sprintf "line %d carries its own id" i)
            (Some (Printf.sprintf "dup%02d" i))
            (Option.bind (Pv_obs.Json.member "id" j) Pv_obs.Json.to_string_opt)
      | Error e -> Alcotest.failf "line %d unparseable: %s" i e)
    lines;
  (* every body (id aside) is identical: strip the id by re-parsing *)
  match lines with
  | first :: rest ->
      let body l =
        match Pv_obs.Json.parse l with
        | Ok j ->
            Option.map Pv_obs.Json.to_string (Pv_obs.Json.member "result" j)
        | Error _ -> None
      in
      Alcotest.(check bool) "responses carry a result" true (body first <> None);
      List.iter
        (fun l ->
          Alcotest.(check (option string)) "same result in every body"
            (body first) (body l))
        rest
  | [] -> Alcotest.fail "no output"

let test_error_and_bad_lines () =
  (* unknown kernel => error response; non-JSON => bad_request; both
     still counted and answered *)
  let lines =
    ref
      [
        Service.request_to_json
          (Service.request ~id:"good" ~kernel:"matvec" ~backend:"prevv16" ());
        {|{"id":"ghost","kernel":"nope","backend":"prevv16"}|};
        "not json at all";
      ]
  in
  let next () =
    match !lines with [] -> None | l :: r -> lines := r; Some l
  in
  let out = Buffer.create 256 in
  let s =
    Service.run
      { Service.default_config with Service.policy = quick_policy }
      ~next
      ~emit:(fun l -> Buffer.add_string out l; Buffer.add_char out '\n')
  in
  Alcotest.(check int) "received" 3 s.Service.received;
  Alcotest.(check int) "responded" 3 s.Service.responded;
  Alcotest.(check int) "ok" 1 s.Service.ok;
  Alcotest.(check int) "errors" 1 s.Service.errors;
  Alcotest.(check int) "bad_requests" 1 s.Service.bad_requests;
  Alcotest.(check int) "zero lost" 0 s.Service.lost;
  let statuses =
    List.filter_map
      (fun l ->
        if l = "" then None
        else
          match Pv_obs.Json.parse l with
          | Ok j -> Option.bind (Pv_obs.Json.member "status" j) Pv_obs.Json.to_string_opt
          | Error _ -> None)
      (String.split_on_char '\n' (Buffer.contents out))
  in
  Alcotest.(check (list string)) "statuses in arrival order"
    [ "ok"; "error"; "bad_request" ] statuses

let test_summary_conserves_states () =
  (* no control lines: an {"op":"stats"} line is a bad request like any
     other unparseable line, answered in its place.  Every received line
     ends in exactly one state: received = ok + errors + bad_requests +
     shed *)
  let reqs = List.map Service.request_to_json (cold_requests 6) in
  let stats_line = {|{"op":"stats"}|} in
  let remaining =
    ref (stats_line :: List.concat_map (fun r -> [ r; stats_line ]) reqs)
  in
  let next () =
    match !remaining with
    | [] -> None
    | l :: rest ->
        remaining := rest;
        Some l
  in
  let out = Buffer.create 4096 in
  let s =
    Service.run
      {
        Service.default_config with
        Service.jobs = 2;
        Service.queue_capacity = 16;
        Service.policy = quick_policy;
      }
      ~next
      ~emit:(fun l -> Buffer.add_string out l; Buffer.add_char out '\n')
  in
  Alcotest.(check int) "every line received" 13 s.Service.received;
  Alcotest.(check int) "zero lost" 0 s.Service.lost;
  Alcotest.(check int) "stats lines are bad requests" 7 s.Service.bad_requests;
  Alcotest.(check int) "received = ok + errors + bad_requests + shed"
    s.Service.received
    (s.Service.ok + s.Service.errors + s.Service.bad_requests + s.Service.shed);
  let statuses =
    List.filter_map
      (fun l ->
        if l = "" then None
        else
          match Pv_obs.Json.parse l with
          | Ok j ->
              Option.bind (Pv_obs.Json.member "status" j)
                Pv_obs.Json.to_string_opt
          | Error _ -> None)
      (String.split_on_char '\n' (Buffer.contents out))
  in
  Alcotest.(check (list string)) "one response per line, in arrival order"
    ("bad_request" :: List.concat_map (fun _ -> [ "ok"; "bad_request" ]) reqs)
    statuses

let test_emit_before_next_line jobs () =
  (* a finished response leaves before the next request line arrives:
     [next] withholds the second line until the first response is out *)
  let lines = List.map Service.request_to_json (cold_requests 2) in
  let emitted = Atomic.make 0 and waited_out = ref false in
  let remaining = ref lines and handed = ref 0 in
  let next () =
    match !remaining with
    | [] -> None
    | l :: rest ->
        if !handed = 1 then
          waited_out :=
            not (wait_until ~seconds:10.0 (fun () -> Atomic.get emitted > 0));
        incr handed;
        remaining := rest;
        Some l
  in
  let s =
    Service.run
      {
        Service.default_config with
        Service.jobs;
        Service.policy = quick_policy;
      }
      ~next
      ~emit:(fun _ -> Atomic.incr emitted)
  in
  Alcotest.(check bool) "first response emitted while next waited" false
    !waited_out;
  Alcotest.(check int) "both answered" 2 (Atomic.get emitted);
  Alcotest.(check int) "zero lost" 0 s.Service.lost

exception Emit_broke

let test_emit_failure_surfaces () =
  (* [emit] raises on its third line, on a worker domain: [run] must stop
     emitting, let the workers retire and re-raise on the calling domain,
     not hang waiting for a worker that died *)
  let calls = Atomic.make 0 in
  let emit _ = if Atomic.fetch_and_add calls 1 = 2 then raise Emit_broke in
  let remaining = ref (List.map Service.request_to_json (cold_requests 6)) in
  let next () =
    match !remaining with
    | l :: rest ->
        remaining := rest;
        Some l
    | [] ->
        (* hold intake open so the failing emit happens on a worker *)
        ignore (wait_until ~seconds:10.0 (fun () -> Atomic.get calls >= 3));
        None
  in
  let outcome = Atomic.make None in
  let runner =
    Domain.spawn (fun () ->
        Atomic.set outcome
          (Some
             (match
                Service.run
                  {
                    Service.default_config with
                    Service.jobs = 2;
                    Service.policy = quick_policy;
                  }
                  ~next ~emit
              with
             | _ -> "returned"
             | exception Emit_broke -> "raised Emit_broke"
             | exception e -> "raised " ^ Printexc.to_string e)))
  in
  if not (wait_until ~seconds:30.0 (fun () -> Atomic.get outcome <> None))
  then Alcotest.fail "Service.run hung after emit raised";
  Domain.join runner;
  Alcotest.(check (option string)) "run re-raises the emit failure"
    (Some "raised Emit_broke") (Atomic.get outcome);
  Alcotest.(check int) "no line emitted after the failure" 3
    (Atomic.get calls)

let test_summary_json_well_formed () =
  let _, s =
    run_requests
      { Service.default_config with Service.policy = quick_policy }
      (cold_requests 3)
  in
  match Pv_obs.Json.parse (Pv_obs.Json.to_string (Service.summary_to_json s)) with
  | Ok j ->
      Alcotest.(check (option int)) "summary.received" (Some 3)
        (Option.bind (Pv_obs.Json.member "received" j) Pv_obs.Json.to_int_opt);
      Alcotest.(check (option int)) "summary.lost" (Some 0)
        (Option.bind (Pv_obs.Json.member "lost" j) Pv_obs.Json.to_int_opt)
  | Error e -> Alcotest.failf "summary json unparseable: %s" e

let () =
  Alcotest.run "service"
    [
      ( "protocol",
        [
          Alcotest.test_case "parse round-trip" `Quick test_parse_round_trip;
          Alcotest.test_case "defaults and parse errors" `Quick
            test_parse_defaults_and_errors;
          Alcotest.test_case "request key ignores id" `Quick
            test_request_key_ignores_id;
        ] );
      ( "delivery",
        [
          Alcotest.test_case "2 jobs: zero lost, serial-identical" `Quick
            test_parallel_matches_serial;
          Alcotest.test_case "overload sheds explicitly" `Quick
            test_overload_sheds_explicitly;
          Alcotest.test_case "in-flight dedupe" `Quick test_dedup_in_flight;
          Alcotest.test_case "error and bad lines answered" `Quick
            test_error_and_bad_lines;
          Alcotest.test_case "summary json" `Quick test_summary_json_well_formed;
          Alcotest.test_case "emit before the next line, 2 jobs" `Quick
            (test_emit_before_next_line 2);
          Alcotest.test_case "emit before the next line, inline" `Quick
            (test_emit_before_next_line 1);
          Alcotest.test_case "emit failure on a worker surfaces" `Quick
            test_emit_failure_surfaces;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "summary conserves request states" `Quick
            test_summary_conserves_states;
        ] );
    ]
