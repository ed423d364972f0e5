(** Growable circular buffer of fixed-stride integer records.

    The simulator's hot loop stores every queue-shaped piece of state —
    FU pipelines, elastic buffers, announced stores, outstanding load
    responses — as records of [stride] ints in one flat array, so pushing
    and popping never touches the minor heap.  Capacity is a power of two
    (index arithmetic is a mask) and doubles on demand; after warm-up a
    steady-state cycle performs no allocation.

    Squash recovery uses {!reject_ge}: an in-place, order-preserving
    compaction that drops every record whose key field is at or beyond the
    squash point — the replacement for the allocate-a-scratch-queue-per-
    squash pattern this module retired. *)

type t = {
  stride : int;
  mutable buf : int array;  (* length = capacity * stride *)
  mutable mask : int;  (* capacity - 1; capacity is a power of two *)
  mutable head : int;  (* record index of the oldest record *)
  mutable len : int;  (* live records *)
}

let rec pow2 n k = if k >= n then k else pow2 n (k * 2)

let create ~stride cap =
  if stride <= 0 then invalid_arg "Ring.create: stride must be > 0";
  let cap = pow2 (max cap 2) 2 in
  { stride; buf = Array.make (cap * stride) 0; mask = cap - 1; head = 0; len = 0 }

let length t = t.len
let is_empty t = t.len = 0
let capacity t = t.mask + 1

(* Base offset into [buf] of live record [i] (0 = oldest). *)
let[@inline] base t i = ((t.head + i) land t.mask) * t.stride

(* Record/field coordinates come from the simulator's own invariants
   (i < len, field < stride), and the masked base is in range by
   construction, so accesses skip the bounds check — this module is on
   the per-cycle hot path of every pipe, buffer and memory port. *)
let[@inline] get t i field = Array.unsafe_get t.buf (base t i + field)
let[@inline] set t i field v = Array.unsafe_set t.buf (base t i + field) v

let grow t =
  let cap = capacity t in
  let buf = Array.make (cap * 2 * t.stride) 0 in
  (* unroll the circular order into the new buffer *)
  for i = 0 to t.len - 1 do
    Array.blit t.buf (base t i) buf (i * t.stride) t.stride
  done;
  t.buf <- buf;
  t.mask <- (cap * 2) - 1;
  t.head <- 0

(* Append one record and return its base offset for field writes. *)
let[@inline] push_base t =
  if t.len > t.mask then grow t;
  let b = base t t.len in
  t.len <- t.len + 1;
  b

let push1 t a =
  let b = push_base t in
  Array.unsafe_set t.buf b a

let push2 t a b2 =
  let b = push_base t in
  Array.unsafe_set t.buf b a;
  Array.unsafe_set t.buf (b + 1) b2

let push3 t a b2 c =
  let b = push_base t in
  Array.unsafe_set t.buf b a;
  Array.unsafe_set t.buf (b + 1) b2;
  Array.unsafe_set t.buf (b + 2) c

let push4 t a b2 c d =
  let b = push_base t in
  Array.unsafe_set t.buf b a;
  Array.unsafe_set t.buf (b + 1) b2;
  Array.unsafe_set t.buf (b + 2) c;
  Array.unsafe_set t.buf (b + 3) d

let pop t =
  if t.len = 0 then invalid_arg "Ring.pop: empty";
  t.head <- (t.head + 1) land t.mask;
  t.len <- t.len - 1

let clear t =
  t.head <- 0;
  t.len <- 0

(* Drop every record whose [field] is >= [cutoff], preserving the order of
   the survivors; returns the number of records dropped.  Compaction moves
   surviving records toward the head in place — write index w never passes
   read index r, so field-by-field copies are safe even across the wrap. *)
let[@inline] keep_record t r w =
  if w < r then begin
    let src = base t r and dst = base t w in
    for k = 0 to t.stride - 1 do
      t.buf.(dst + k) <- t.buf.(src + k)
    done
  end

let reject_ge t ~field ~cutoff =
  let w = ref 0 in
  for r = 0 to t.len - 1 do
    if t.buf.(base t r + field) < cutoff then begin
      keep_record t r !w;
      incr w
    end
  done;
  let removed = t.len - !w in
  t.len <- !w;
  removed

let reject_lt t ~field ~cutoff =
  let w = ref 0 in
  for r = 0 to t.len - 1 do
    if t.buf.(base t r + field) >= cutoff then begin
      keep_record t r !w;
      incr w
    end
  done;
  let removed = t.len - !w in
  t.len <- !w;
  removed

let iter f t =
  for i = 0 to t.len - 1 do
    f i
  done
