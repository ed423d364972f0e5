(* The task lifecycle (DESIGN.md §18).

   The load-bearing properties:
   - backoff is seed-deterministic: same (policy, label) gives the same
     schedule, every delay respects the exponential envelope and cap;
   - a task that keeps failing is retried exactly max_attempts times and
     comes back as a structured task_error; in a sweep the rest of the
     grid completes — one crash never poisons the batch;
   - a cooperative deadline cancels a runaway task (the simulator's
     cancel hook raises Sim.Cancelled) and is reported as deadline_hit;
   - a failure renders one way, whichever caller reports it, and a sweep
     is identical at any worker count, errors included. *)

open Pv_core

exception Flaky of int

let quick_policy =
  {
    Supervisor.default_policy with
    Supervisor.base_delay_s = 0.0005;
    Supervisor.max_delay_s = 0.002;
  }

(* ------------------------------------------------------------------ *)
(* Backoff determinism                                                 *)
(* ------------------------------------------------------------------ *)

let test_backoff_deterministic () =
  let p = { quick_policy with Supervisor.max_attempts = 6; Supervisor.seed = 42 } in
  let a = Supervisor.backoff_schedule p ~label:"gaussian/prevv16" in
  let b = Supervisor.backoff_schedule p ~label:"gaussian/prevv16" in
  Alcotest.(check (list (float 0.0))) "same seed => same schedule" a b;
  Alcotest.(check int) "max_attempts - 1 delays" 5 (List.length a);
  (* a different seed or label jitters differently somewhere *)
  let c =
    Supervisor.backoff_schedule { p with Supervisor.seed = 43 }
      ~label:"gaussian/prevv16"
  in
  let d = Supervisor.backoff_schedule p ~label:"matvec/prevv16" in
  Alcotest.(check bool) "different seed differs" true (a <> c);
  Alcotest.(check bool) "different label differs" true (a <> d);
  (* envelope: delay n sits in [0.5, 1.5) x min(base * 2^(n-1), cap) *)
  List.iteri
    (fun i delay ->
      let base =
        Float.min
          (p.Supervisor.base_delay_s *. (2.0 ** float_of_int i))
          p.Supervisor.max_delay_s
      in
      Alcotest.(check bool)
        (Printf.sprintf "delay %d in envelope" (i + 1))
        true
        (delay >= 0.5 *. base && delay < 1.5 *. base))
    a

(* ------------------------------------------------------------------ *)
(* Retry budget                                                        *)
(* ------------------------------------------------------------------ *)

let test_failing_task_exhausts_budget () =
  let tries = Atomic.make 0 in
  let result, tally =
    Supervisor.retry quick_policy ~label:"task2" (fun ~token:_ ->
        Atomic.incr tries;
        raise (Flaky 2))
  in
  (match result with
  | Error (e : Supervisor.task_error) ->
      Alcotest.(check string) "error names the task" "task2" e.label;
      Alcotest.(check int) "attempts = budget"
        quick_policy.Supervisor.max_attempts e.attempts;
      Alcotest.(check string) "last exception rendered"
        (Printexc.to_string (Flaky 2)) e.last_error;
      Alcotest.(check bool) "not a deadline" false e.deadline_hit
  | Ok () -> Alcotest.fail "task must fail");
  Alcotest.(check int) "ran exactly the budget"
    quick_policy.Supervisor.max_attempts (Atomic.get tries);
  Alcotest.(check int) "retries = budget - 1"
    (quick_policy.Supervisor.max_attempts - 1) tally.Supervisor.retries

let test_non_retryable_fails_fast () =
  let result, tally =
    Supervisor.retry quick_policy ~label:"t0" (fun ~token:_ ->
        invalid_arg "infeasible configuration")
  in
  (match result with
  | Error e ->
      Alcotest.(check int) "one attempt only" 1 e.Supervisor.attempts;
      Alcotest.(check string) "bare message kept" "infeasible configuration"
        e.Supervisor.last_error
  | Ok () -> Alcotest.fail "expected failure");
  Alcotest.(check int) "no retries burned" 0 tally.Supervisor.retries

let test_flaky_task_recovers () =
  (* fails twice, succeeds on the third attempt: inside the budget *)
  let tries = Atomic.make 0 in
  let result, tally =
    Supervisor.retry quick_policy ~label:"flaky" (fun ~token:_ ->
        if Atomic.fetch_and_add tries 1 < 2 then raise (Flaky 0) else 99)
  in
  (match result with
  | Ok v -> Alcotest.(check int) "recovered value" 99 v
  | Error _ -> Alcotest.fail "expected recovery");
  Alcotest.(check int) "two retries" 2 tally.Supervisor.retries

let test_budget_below_one () =
  (* never raises: a non-positive budget still makes one attempt *)
  let result, tally =
    Supervisor.retry
      { quick_policy with Supervisor.max_attempts = 0 }
      ~label:"t" (fun ~token:_ -> raise (Flaky 0))
  in
  (match result with
  | Error e -> Alcotest.(check int) "one attempt" 1 e.Supervisor.attempts
  | Ok () -> Alcotest.fail "expected failure");
  Alcotest.(check int) "no retries" 0 tally.Supervisor.retries

(* ------------------------------------------------------------------ *)
(* Deadlines and cooperative cancellation                              *)
(* ------------------------------------------------------------------ *)

let test_token_deadline () =
  let t = Supervisor.Token.create ~deadline_s:(-1.0) () in
  Alcotest.(check bool) "past deadline already cancelled" true
    (Supervisor.Token.cancelled t);
  let u = Supervisor.Token.create () in
  Alcotest.(check bool) "fresh token live" false (Supervisor.Token.cancelled u);
  Supervisor.Token.cancel u;
  Alcotest.(check bool) "cancel sticks" true (Supervisor.Token.cancelled u)

let test_deadline_overrun_reported () =
  let policy =
    { quick_policy with
      Supervisor.max_attempts = 2;
      Supervisor.deadline_s = Some 0.02 }
  in
  let result, tally =
    Supervisor.retry policy ~label:"spinner" (fun ~token ->
        (* a runaway task that at least polls its token, like Sim does *)
        while not (Supervisor.Token.cancelled token) do
          ignore (Sys.opaque_identity ())
        done;
        raise Exit)
  in
  (match result with
  | Error e ->
      Alcotest.(check bool) "deadline_hit" true e.Supervisor.deadline_hit;
      Alcotest.(check int) "retried to budget" 2 e.Supervisor.attempts
  | Ok () -> Alcotest.fail "expected deadline failure");
  Alcotest.(check int) "a deadline hit per attempt" 2
    tally.Supervisor.deadline_hits

let test_describe_exn () =
  Alcotest.(check string) "infeasible: the bare message" "depth too small"
    (Supervisor.describe_exn (Invalid_argument "depth too small"));
  Alcotest.(check string) "cancellation names the cycle"
    "deadline exceeded (cancelled at cycle 64)"
    (Supervisor.describe_exn (Pv_dataflow.Sim.Cancelled { at_cycle = 64 }));
  Alcotest.(check string) "anything else: Printexc"
    (Printexc.to_string (Failure "boom"))
    (Supervisor.describe_exn (Failure "boom"))

let test_sim_cancel_hook () =
  (* the simulator's cancel hook: an already-cancelled run comes back from
     the sweep as the one rendering of Sim.Cancelled, not as a deadline
     (the policy set none) *)
  let sim_cfg =
    { Pv_dataflow.Sim.default_config with
      Pv_dataflow.Sim.cancel = (fun () -> true) }
  in
  match
    Experiment.sweep
      ~policy:{ quick_policy with Supervisor.max_attempts = 1 }
      ~sim_cfg
      [ (Pv_kernels.Defs.gaussian (), Scheme.prevv 16) ]
  with
  | [ Error e ] ->
      Alcotest.(check string) "the single rendering"
        (Supervisor.describe_exn (Pv_dataflow.Sim.Cancelled { at_cycle = 0 }))
        e.Supervisor.last_error;
      Alcotest.(check bool) "not a policy deadline" false
        e.Supervisor.deadline_hit
  | _ -> Alcotest.fail "cancelled run must not produce a point"

(* ------------------------------------------------------------------ *)
(* Sweeps over real cells                                              *)
(* ------------------------------------------------------------------ *)

let test_sweep_partial_results () =
  (* one infeasible cell (depth 2 cannot hold one body instance): the
     errors section names it, the other cells complete *)
  let kernel = Pv_kernels.Defs.gaussian () in
  let cells =
    [ (kernel, Scheme.prevv 1); (kernel, Scheme.prevv 16);
      (kernel, Scheme.fast_lsq) ]
  in
  let m = Pv_obs.Metrics.create () in
  let results =
    Experiment.sweep ~policy:quick_policy ~metrics:m ~jobs:2 cells
  in
  (match results with
  | [ Error e; Ok p16; Ok plsq ] ->
      Alcotest.(check string)
        "error names kernel/config" "gaussian/prevv1" e.Supervisor.label;
      Alcotest.(check int) "infeasible fails fast" 1 e.Supervisor.attempts;
      Alcotest.(check bool) "points verified" true
        (p16.Experiment.verified && plsq.Experiment.verified)
  | _ -> Alcotest.fail "expected [Error; Ok; Ok]");
  Alcotest.(check int) "runner.points" 2
    (Pv_obs.Metrics.counter_value m "runner.points");
  Alcotest.(check int) "runner.task_errors" 1
    (Pv_obs.Metrics.counter_value m "runner.task_errors");
  Alcotest.(check int) "runner.retries" 0
    (Pv_obs.Metrics.counter_value m "runner.retries");
  (* the sweep matches the bare run point for point *)
  let reference = Experiment.run kernel (Scheme.prevv 16) in
  (match results with
  | [ _; Ok p; _ ] ->
      Alcotest.(check string) "same rendering as bare run"
        (Experiment.point_to_json reference)
        (Experiment.point_to_json p)
  | _ -> ());
  (* the task_error JSON is parseable and self-describing *)
  match results with
  | Error e :: _ -> (
      match
        Pv_obs.Json.parse (Pv_obs.Json.to_string (Supervisor.task_error_to_json e))
      with
      | Ok j ->
          Alcotest.(check (option string))
            "json label" (Some "gaussian/prevv1")
            (Option.bind (Pv_obs.Json.member "label" j) Pv_obs.Json.to_string_opt)
      | Error msg -> Alcotest.failf "task_error json unparseable: %s" msg)
  | _ -> ()

let test_sweep_jobs_effective () =
  (* the gauge records the workers the sweep actually used *)
  let kernel = Pv_kernels.Defs.histogram () in
  let cells =
    [ (kernel, Scheme.prevv 16); (kernel, Scheme.fast_lsq);
      (kernel, Scheme.prevv 64) ]
  in
  let used jobs =
    let m = Pv_obs.Metrics.create () in
    ignore (Experiment.sweep ~metrics:m ~jobs cells);
    Pv_obs.Metrics.gauge_value m "runner.jobs_effective"
  in
  Alcotest.(check int) "serial sweep: one worker" 1 (used 1);
  Alcotest.(check int) "three cells at jobs=8: three workers" 3 (used 8)

let test_sweep_jobs_identity () =
  (* the CI cell list, infeasible gaussian/prevv1 included: serial and
     pooled sweeps agree on every point and every error *)
  let cells =
    List.concat_map
      (fun k ->
        List.map (fun d -> (k, d))
          [ Scheme.prevv 1; Scheme.prevv 16; Scheme.fast_lsq ])
      [ Pv_kernels.Defs.gaussian (); Pv_kernels.Defs.matvec () ]
  in
  let render =
    List.map (function
      | Ok p -> Experiment.point_to_json p
      | Error e ->
          Pv_obs.Json.to_string (Supervisor.task_error_to_json e))
  in
  let serial = Experiment.sweep ~jobs:1 cells in
  let pooled = Experiment.sweep ~jobs:4 cells in
  Alcotest.(check (list string)) "jobs=1 = jobs=4" (render serial)
    (render pooled);
  Alcotest.(check int) "exactly one infeasible cell" 1
    (List.length (List.filter Result.is_error serial))

let test_paper_grid_shape () =
  let rows = Experiment.paper_grid ~jobs:2 () in
  Alcotest.(check int) "five kernel rows" 5 (List.length rows);
  List.iter
    (fun row ->
      Alcotest.(check int) "four configs per row" 4 (List.length row);
      List.iter
        (fun (p : Experiment.point) ->
          Alcotest.(check bool)
            (p.Experiment.kernel ^ "/" ^ p.Experiment.config ^ " verified")
            true p.Experiment.verified)
        row)
    rows

let () =
  Alcotest.run "supervisor"
    [
      ( "backoff",
        [ Alcotest.test_case "deterministic schedule" `Quick
            test_backoff_deterministic ] );
      ( "retry",
        [
          Alcotest.test_case "failing task exhausts budget" `Quick
            test_failing_task_exhausts_budget;
          Alcotest.test_case "non-retryable fails fast" `Quick
            test_non_retryable_fails_fast;
          Alcotest.test_case "flaky task recovers" `Quick
            test_flaky_task_recovers;
          Alcotest.test_case "budget below one" `Quick test_budget_below_one;
        ] );
      ( "deadlines",
        [
          Alcotest.test_case "token deadline" `Quick test_token_deadline;
          Alcotest.test_case "deadline overrun reported" `Quick
            test_deadline_overrun_reported;
          Alcotest.test_case "describe_exn" `Quick test_describe_exn;
          Alcotest.test_case "sim cancel hook" `Quick test_sim_cancel_hook;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "partial results + errors section" `Quick
            test_sweep_partial_results;
          Alcotest.test_case "jobs_effective" `Quick test_sweep_jobs_effective;
          Alcotest.test_case "jobs=1 vs jobs=4 identity" `Quick
            test_sweep_jobs_identity;
          Alcotest.test_case "paper grid" `Quick test_paper_grid_shape;
        ] );
    ]
