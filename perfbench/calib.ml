(* Host-speed calibration.

   The shared hosts this benchmark runs on change speed by up to 1.7x over
   a few seconds, which would swamp any regression bound on raw host time.
   So every run times a fixed calibration workload between its
   measurements, and reports host times scaled to a reference speed:
   [time * reference_ns / calibration time nearby].  The calibration shares
   no code with the repository, so a regression in the program is not
   cancelled.  It mimics the benchmark's own mix (hashing, allocation that
   reaches the major heap, sorting, string building), because a tight
   integer loop does not slow down with it. *)

(* calibration time on an unloaded host of the kind the bounds were set on
   (2-vCPU x86-64 VM) *)
let reference_ns = 25_000_000.0

let work () =
  let h = Hashtbl.create 16 in
  for i = 0 to 30_000 do
    Hashtbl.replace h (i * 7919) (string_of_int i)
  done;
  let s = ref 0 in
  for i = 0 to 30_000 do
    match Hashtbl.find_opt h (i * 7919) with Some v -> s := !s + String.length v | None -> ()
  done;
  let l = List.sort compare (List.init 50_000 (fun i -> ((i * 1103515245) + 12345) land 0xffff)) in
  let b = Buffer.create 16 in
  List.iteri (fun i x -> if i land 7 = 0 then Buffer.add_string b (Printf.sprintf "%d," x)) l;
  Sys.opaque_identity (!s + Buffer.length b)

(* ns taken by one calibration run, from a compacted heap: its allocation
   reaches the major heap, so it must not see how large the measured work
   has left the heap *)
let time () =
  Gc.compact ();
  let t0 = Mono.now () in
  ignore (work ());
  float_of_int (Mono.now () - t0)

(* the factor that scales a host time measured between calibrations
   [before] and [after] to reference speed *)
let factor ~before ~after = reference_ns /. ((before +. after) /. 2.0)
