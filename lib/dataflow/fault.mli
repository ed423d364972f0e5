(** Deterministic fault-injection plans for resilience testing.

    A plan is a list of timed disturbances applied to a running simulation:
    channel-level faults (drop a token, stall a channel, flip value bits)
    are executed by {!Sim} itself; backend-level faults (a spurious squash,
    corruption of a premature-queue entry) are forwarded to the memory
    backend through {!Memif.t.inject}.

    {e Detected} faults ([Drop_replay], [Flip_replay], [B_pq_flip] with
    [detect], [B_squash]) pair the disturbance with a squash at the victim
    token's iteration — the model of a parity/ECC-protected datapath whose
    error signal drives the existing squash/replay machinery — and must be
    fully recoverable.  {e Silent} faults either starve the pipeline into a
    diagnosed deadlock or are caught by PreVV's own value validation.

    Events are {e armed} at [at_cycle] and fire at the first subsequent
    cycle at which they are applicable (a token present on the channel, a
    live entry in the queue); an event that never fires is reported as
    skipped in the post-mortem. *)

type backend_action =
  | B_squash of { seq : int }
      (** spurious squash at iteration [seq]; refused (and the event
          skipped) once the commit frontier has passed [seq] *)
  | B_pq_flip of { inst : int; slot : int; mask : int; detect : bool }
      (** xor [mask] into the value of the [slot]-th live premature-queue
          entry of disambiguation instance [inst]; [detect] models an ECC
          check that raises a squash at the entry's iteration *)
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

val string_of_event : event -> string

(** Round-trips with {!parse}. *)
val to_string : plan -> string

val pp_plan : Format.formatter -> plan -> unit
val pp_application : Format.formatter -> application -> unit

(** Parse the textual form produced by {!to_string}: comma-separated
    [CYCLE:KIND:ARGS] events, e.g.
    ["40:drop-replay:c3,100:stall:c7:64,200:squash:i5"]. *)
val parse : string -> (plan, string) result

(** A plan of [n] detected (hence recoverable) disturbances, deterministic
    in [seed]: channel stalls, detected drops, detected bit-flips and
    spurious squashes, armed uniformly over the first [horizon] cycles. *)
val random_recoverable :
  ?n:int -> seed:int -> n_chans:int -> max_seq:int -> horizon:int -> unit -> plan
