type hist = {
  h_bounds : int array;
  h_buckets : int array; (* |h_bounds| + 1; last is overflow *)
  mutable h_count : int;
  mutable h_sum : int;
  mutable h_min : int;
  mutable h_max : int;
}

type instrument =
  | Counter of int ref
  | Gauge of int ref
  | Hist of hist

type t = (string, instrument) Hashtbl.t

let create () : t = Hashtbl.create 32

let default_bounds =
  [| 0; 1; 2; 4; 8; 16; 32; 64; 128; 256; 1024; 4096; 16384; 65536 |]

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Hist _ -> "histogram"

let wrong_kind name found want =
  invalid_arg
    (Printf.sprintf "Metrics: %S is a %s, not a %s" name (kind_name found) want)

let counter_ref t name =
  match Hashtbl.find_opt t name with
  | Some (Counter r) -> r
  | Some other -> wrong_kind name other "counter"
  | None ->
    let r = ref 0 in
    Hashtbl.add t name (Counter r);
    r

let gauge_ref t name =
  match Hashtbl.find_opt t name with
  | Some (Gauge r) -> r
  | Some other -> wrong_kind name other "gauge"
  | None ->
    let r = ref 0 in
    Hashtbl.add t name (Gauge r);
    r

let incr t name = Stdlib.incr (counter_ref t name)

let add t name n =
  if n < 0 then invalid_arg "Metrics.add: negative increment";
  let r = counter_ref t name in
  r := !r + n

let set_gauge t name v = gauge_ref t name := v

let set_gauge_max t name v =
  let r = gauge_ref t name in
  if v > !r then r := v

let fresh_hist bounds =
  {
    h_bounds = Array.copy bounds;
    h_buckets = Array.make (Array.length bounds + 1) 0;
    h_count = 0;
    h_sum = 0;
    h_min = 0;
    h_max = 0;
  }

let bucket_of bounds v =
  (* index of first bound >= v, or |bounds| (overflow) *)
  let n = Array.length bounds in
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if bounds.(mid) >= v then go lo mid else go (mid + 1) hi
  in
  go 0 n

let observe t name v =
  let h =
    match Hashtbl.find_opt t name with
    | Some (Hist h) -> h
    | Some other -> wrong_kind name other "histogram"
    | None ->
      let h = fresh_hist default_bounds in
      Hashtbl.add t name (Hist h);
      h
  in
  let b = bucket_of h.h_bounds v in
  h.h_buckets.(b) <- h.h_buckets.(b) + 1;
  if h.h_count = 0 then (
    h.h_min <- v;
    h.h_max <- v)
  else (
    if v < h.h_min then h.h_min <- v;
    if v > h.h_max then h.h_max <- v);
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum + v

let counter_value t name =
  match Hashtbl.find_opt t name with
  | Some (Counter r) -> !r
  | Some other -> wrong_kind name other "counter"
  | None -> 0

let gauge_value t name =
  match Hashtbl.find_opt t name with
  | Some (Gauge r) -> !r
  | Some other -> wrong_kind name other "gauge"
  | None -> 0

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

type hist_snap = {
  bounds : int array;
  buckets : int array;
  count : int;
  sum : int;
  min_v : int;
  max_v : int;
}

type snap_entry = S_counter of int | S_gauge of int | S_hist of hist_snap

type snapshot = (string * snap_entry) list

let snap_instrument = function
  | Counter r -> S_counter !r
  | Gauge r -> S_gauge !r
  | Hist h ->
    S_hist
      {
        bounds = Array.copy h.h_bounds;
        buckets = Array.copy h.h_buckets;
        count = h.h_count;
        sum = h.h_sum;
        min_v = h.h_min;
        max_v = h.h_max;
      }

let snapshot t =
  Hashtbl.fold (fun name ins acc -> (name, snap_instrument ins) :: acc) t []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let absorb t snap =
  List.iter
    (fun (name, entry) ->
      match entry with
      | S_counter n -> add t name n
      | S_gauge v -> set_gauge_max t name v
      | S_hist hs -> (
        match Hashtbl.find_opt t name with
        | None ->
          let h = fresh_hist hs.bounds in
          Array.blit hs.buckets 0 h.h_buckets 0 (Array.length hs.buckets);
          h.h_count <- hs.count;
          h.h_sum <- hs.sum;
          h.h_min <- hs.min_v;
          h.h_max <- hs.max_v;
          Hashtbl.add t name (Hist h)
        | Some (Hist h) ->
          if h.h_bounds <> hs.bounds then
            invalid_arg
              (Printf.sprintf "Metrics.absorb: histogram %S bounds differ" name);
          Array.iteri
            (fun i c -> h.h_buckets.(i) <- h.h_buckets.(i) + c)
            hs.buckets;
          if hs.count > 0 then (
            if h.h_count = 0 then (
              h.h_min <- hs.min_v;
              h.h_max <- hs.max_v)
            else (
              if hs.min_v < h.h_min then h.h_min <- hs.min_v;
              if hs.max_v > h.h_max then h.h_max <- hs.max_v));
          h.h_count <- h.h_count + hs.count;
          h.h_sum <- h.h_sum + hs.sum
        | Some other -> wrong_kind name other "histogram"))
    snap

let merge_snapshots a b =
  let t = create () in
  absorb t a;
  absorb t b;
  snapshot t

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let int_array_json a = Json.List (Array.to_list a |> List.map (fun i -> Json.Int i))

let entry_to_json = function
  | S_counter n -> Json.Obj [ ("type", Json.Str "counter"); ("value", Json.Int n) ]
  | S_gauge v -> Json.Obj [ ("type", Json.Str "gauge"); ("value", Json.Int v) ]
  | S_hist h ->
    Json.Obj
      [
        ("type", Json.Str "histogram");
        ("bounds", int_array_json h.bounds);
        ("buckets", int_array_json h.buckets);
        ("count", Json.Int h.count);
        ("sum", Json.Int h.sum);
        ("min", Json.Int h.min_v);
        ("max", Json.Int h.max_v);
      ]

let snapshot_to_json snap =
  Json.Obj (List.map (fun (name, e) -> (name, entry_to_json e)) snap)

let to_json t = snapshot_to_json (snapshot t)
