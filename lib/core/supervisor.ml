(** The task lifecycle — see the .mli and DESIGN.md §18. *)

module Token = struct
  type t = { flag : bool Atomic.t; deadline_ns : int64 option }

  let create ?deadline_s () =
    {
      flag = Atomic.make false;
      deadline_ns =
        Option.map
          (fun s -> Int64.add (Clock.now_ns ()) (Int64.of_float (s *. 1e9)))
          deadline_s;
    }

  let cancel t = Atomic.set t.flag true

  let cancelled t =
    Atomic.get t.flag
    ||
    match t.deadline_ns with
    | None -> false
    | Some d -> Int64.compare (Clock.now_ns ()) d > 0
end

type policy = {
  max_attempts : int;
  base_delay_s : float;
  max_delay_s : float;
  deadline_s : float option;
  seed : int;
  retryable : exn -> bool;
}

let default_policy =
  {
    max_attempts = 3;
    base_delay_s = 0.01;
    max_delay_s = 0.5;
    deadline_s = None;
    seed = 0;
    retryable = (function Invalid_argument _ -> false | _ -> true);
  }

(* Deterministic jitter in [0.5, 1.5): Hashtbl.hash over (seed, label,
   attempt) is stable across runs and processes for these immediate
   values, which is what makes the schedule reproducible. *)
let backoff_delay p ~label ~attempt =
  let exponential = p.base_delay_s *. (2.0 ** float_of_int (attempt - 1)) in
  let capped = Float.min exponential p.max_delay_s in
  let h = Hashtbl.hash (p.seed, label, attempt) in
  capped *. (0.5 +. (float_of_int (h land 1023) /. 1024.0))

let backoff_schedule p ~label =
  List.init (max 0 (p.max_attempts - 1)) (fun i ->
      backoff_delay p ~label ~attempt:(i + 1))

type task_error = {
  label : string;
  attempts : int;
  last_error : string;
  deadline_hit : bool;
}

let pp_task_error ppf e =
  Format.fprintf ppf "%s: failed after %d attempt(s)%s: %s" e.label
    e.attempts
    (if e.deadline_hit then " (deadline)" else "")
    e.last_error

let task_error_to_json e =
  Pv_obs.Json.Obj
    [
      ("label", Pv_obs.Json.Str e.label);
      ("attempts", Pv_obs.Json.Int e.attempts);
      ("last_error", Pv_obs.Json.Str e.last_error);
      ("deadline_hit", Pv_obs.Json.Bool e.deadline_hit);
    ]

let describe_exn = function
  | Pv_dataflow.Sim.Cancelled { at_cycle } ->
      Printf.sprintf "deadline exceeded (cancelled at cycle %d)" at_cycle
  | Invalid_argument m -> m
  | e -> Printexc.to_string e

type tally = { retries : int; deadline_hits : int }

let retry p ~label f =
  let rec go attempt deadline_hits =
    let token = Token.create ?deadline_s:p.deadline_s () in
    match f ~token with
    | v -> (Ok v, { retries = attempt - 1; deadline_hits })
    | exception e ->
        let deadline_hit = p.deadline_s <> None && Token.cancelled token in
        let deadline_hits = deadline_hits + Bool.to_int deadline_hit in
        if attempt < p.max_attempts && p.retryable e then begin
          Clock.sleep_s (backoff_delay p ~label ~attempt);
          go (attempt + 1) deadline_hits
        end
        else
          ( Error
              { label; attempts = attempt; last_error = describe_exn e;
                deadline_hit },
            { retries = attempt - 1; deadline_hits } )
  in
  go 1 0
