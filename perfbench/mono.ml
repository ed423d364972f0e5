(* Monotonic nanoseconds as an immediate int: the clock stub returns an
   unboxed int64, so wrapping a hot closure with two reads allocates
   nothing. *)
let now () = Int64.to_int (Monotonic_clock.now ())
let ms_of_ns ns = float_of_int ns /. 1e6
let s_of_ns ns = float_of_int ns /. 1e9
