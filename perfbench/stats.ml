(* Order statistics over float samples. *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* linear interpolation between closest ranks (numpy's default) *)
let quantile a q =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then s.(n - 1)
    else s.(i) +. ((pos -. float_of_int i) *. (s.(i + 1) -. s.(i)))

let median a = quantile a 0.5

(* samples strictly above the q-quantile: a percentile is only reported
   when at least ten samples lie beyond it *)
let beyond a q =
  let x = quantile a q in
  Array.fold_left (fun n v -> if v > x then n + 1 else n) 0 a
