(** Deterministic fault-injection plans for resilience testing.

    A plan is a list of timed disturbances applied to a running simulation:
    channel-level faults (drop a token, stall a channel, flip value bits)
    are executed by {!Sim} itself; backend-level faults (a spurious squash,
    corruption of a premature-queue entry) are forwarded to the memory
    backend through {!Memif.t.inject}.

    Faults come in two flavours.  {e Detected} faults pair the disturbance
    with a squash at the victim token's iteration — the model of a
    parity/ECC-protected datapath whose error signal drives the existing
    squash/replay machinery — and must therefore be fully recoverable: the
    final memory still matches the reference interpreter.  {e Silent}
    faults ([Drop], [Flip], [B_pq_drop] without a paired squash) have no
    detection event; they either starve the pipeline into a diagnosed
    deadlock or are caught by PreVV's own value validation.

    Events are {e armed} at [at_cycle] and fire at the first subsequent
    cycle at which they are applicable (a token present on the channel, a
    live entry in the queue), so plans stay meaningful without cycle-exact
    knowledge of the schedule.  An event that never becomes applicable is
    reported as skipped. *)

type backend_action =
  | B_squash of { seq : int }
      (** spurious squash at iteration [seq]; refused (and the event
          skipped) once the commit frontier has passed [seq] *)
  | B_pq_flip of { inst : int; slot : int; mask : int; detect : bool }
      (** xor [mask] into the value of the [slot]-th live entry of
          disambiguation instance [inst]; [detect] models an ECC check
          that raises a squash at the entry's iteration *)
  | B_pq_drop of { inst : int; slot : int }
      (** lose the [slot]-th live entry outright (a silent SEU on the
          valid bit): its arrival is forgotten, so an undetected drop
          wedges the commit frontier *)

type action =
  | Drop of { chan : int }  (** silently lose the next token on [chan] *)
  | Drop_replay of { chan : int }
      (** detected loss: drop the token and squash at its iteration *)
  | Stall of { chan : int; cycles : int }
      (** block consumption from [chan] for [cycles] cycles *)
  | Flip of { chan : int; mask : int }
      (** silent SEU: xor [mask] into the next token's value *)
  | Flip_replay of { chan : int; mask : int }
      (** detected SEU: flip the value and squash at its iteration *)
  | Backend of backend_action

type event = { at_cycle : int; action : action }
type plan = event list

(** What became of an armed event. *)
type application = {
  ap_event : event;
  ap_fired_at : int option;  (** cycle it fired, [None] = never applicable *)
  ap_note : string;
}

(* --- pretty-printing ---------------------------------------------------- *)

let string_of_backend_action = function
  | B_squash { seq } -> Printf.sprintf "squash:i%d" seq
  | B_pq_flip { inst; slot; mask; detect } ->
      Printf.sprintf "pqflip:%d:%d:0x%x:%s" inst slot mask
        (if detect then "detect" else "silent")
  | B_pq_drop { inst; slot } -> Printf.sprintf "pqdrop:%d:%d" inst slot

let string_of_action = function
  | Drop { chan } -> Printf.sprintf "drop:c%d" chan
  | Drop_replay { chan } -> Printf.sprintf "drop-replay:c%d" chan
  | Stall { chan; cycles } -> Printf.sprintf "stall:c%d:%d" chan cycles
  | Flip { chan; mask } -> Printf.sprintf "flip:c%d:0x%x" chan mask
  | Flip_replay { chan; mask } ->
      Printf.sprintf "flip-replay:c%d:0x%x" chan mask
  | Backend b -> string_of_backend_action b

let string_of_event e = Printf.sprintf "%d:%s" e.at_cycle (string_of_action e.action)
let to_string plan = String.concat "," (List.map string_of_event plan)

let pp_event ppf e = Format.pp_print_string ppf (string_of_event e)

let pp_plan ppf plan =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
    pp_event ppf plan

let pp_application ppf ap =
  Format.fprintf ppf "%a -> %s" pp_event ap.ap_event
    (match ap.ap_fired_at with
    | Some c when ap.ap_note = "" -> Printf.sprintf "fired at cycle %d" c
    | Some c -> Printf.sprintf "fired at cycle %d (%s)" c ap.ap_note
    | None when ap.ap_note = "" -> "never applicable"
    | None -> Printf.sprintf "skipped (%s)" ap.ap_note)

(* --- parsing ------------------------------------------------------------ *)

(** Parse a plan from the textual form produced by {!to_string}:
    comma-separated [CYCLE:KIND:ARGS] events, e.g.
    ["40:drop-replay:c3,100:stall:c7:64,200:squash:i5"]. *)
let parse (s : string) : (plan, string) result =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let int_of s =
    match int_of_string_opt s with
    | Some n -> Ok n
    | None -> fail "not a number: %S" s
  in
  let chan_of s =
    if String.length s > 1 && s.[0] = 'c' then
      int_of (String.sub s 1 (String.length s - 1))
    else fail "expected a channel (cN), got %S" s
  in
  let seq_of s =
    if String.length s > 1 && s.[0] = 'i' then
      int_of (String.sub s 1 (String.length s - 1))
    else fail "expected an iteration (iN), got %S" s
  in
  let ( let* ) = Result.bind in
  let event_of spec =
    match String.split_on_char ':' (String.trim spec) with
    | cycle :: kind :: args -> (
        let* at_cycle = int_of cycle in
        let* action =
          match (kind, args) with
          | "drop", [ c ] ->
              let* chan = chan_of c in
              Ok (Drop { chan })
          | "drop-replay", [ c ] ->
              let* chan = chan_of c in
              Ok (Drop_replay { chan })
          | "stall", [ c; k ] ->
              let* chan = chan_of c in
              let* cycles = int_of k in
              Ok (Stall { chan; cycles })
          | "flip", [ c; m ] ->
              let* chan = chan_of c in
              let* mask = int_of m in
              Ok (Flip { chan; mask })
          | "flip-replay", [ c; m ] ->
              let* chan = chan_of c in
              let* mask = int_of m in
              Ok (Flip_replay { chan; mask })
          | "squash", [ i ] ->
              let* seq = seq_of i in
              Ok (Backend (B_squash { seq }))
          | "pqflip", [ inst; slot; mask; det ] ->
              let* inst = int_of inst in
              let* slot = int_of slot in
              let* mask = int_of mask in
              let* detect =
                match det with
                | "detect" -> Ok true
                | "silent" -> Ok false
                | d -> fail "expected detect|silent, got %S" d
              in
              Ok (Backend (B_pq_flip { inst; slot; mask; detect }))
          | "pqdrop", [ inst; slot ] ->
              let* inst = int_of inst in
              let* slot = int_of slot in
              Ok (Backend (B_pq_drop { inst; slot }))
          | k, _ -> fail "unknown fault %S (or wrong arity) in %S" k spec
        in
        Ok { at_cycle; action })
    | _ -> fail "malformed event %S, expected CYCLE:KIND:ARGS" spec
  in
  if String.trim s = "" then Ok []
  else
    List.fold_left
      (fun acc spec ->
        let* plan = acc in
        let* e = event_of spec in
        Ok (e :: plan))
      (Ok [])
      (String.split_on_char ',' s)
    |> Result.map List.rev

(* --- random plans ------------------------------------------------------- *)

(* self-contained LCG so pv_dataflow keeps zero dependencies; same
   constants as Pv_kernels.Workload *)
type rng = { mutable s : int }

let rng seed = { s = (seed lxor 0x9e3779b9) land 0x3fffffff }

let next r =
  r.s <- ((r.s * 1664525) + 1013904223) land 0x3fffffff;
  r.s

let rand r bound = if bound <= 0 then 0 else next r mod bound

(** A plan of [n] detected (hence recoverable) disturbances: channel
    stalls, detected drops and detected bit-flips, spurious squashes.
    Deterministic in [seed]. *)
let random_recoverable ?(n = 4) ~seed ~n_chans ~max_seq ~horizon () : plan =
  let r = rng seed in
  List.init n (fun _ ->
      let at_cycle = 1 + rand r (max 1 horizon) in
      let action =
        match rand r 4 with
        | 0 -> Stall { chan = rand r n_chans; cycles = 1 + rand r 64 }
        | 1 -> Drop_replay { chan = rand r n_chans }
        | 2 -> Flip_replay { chan = rand r n_chans; mask = 1 + rand r 0xffff }
        | _ -> Backend (B_squash { seq = rand r (max 1 max_seq) })
      in
      { at_cycle; action })
  |> List.sort (fun a b -> compare a.at_cycle b.at_cycle)
