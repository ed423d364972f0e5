module J = Pv_obs.Json

let workloads = [ "paper_grid"; "squash_storm"; "area_sweep" ]
let n_pairs = 7
let seconds = 5.0
let side_limit_s = 600
let seed i = 100 + i
let bound = 0.90
let heap_bound = 1.20
let latency_bound = 1.25
let slower_needed = 6

type run = {
  cells_per_s : float;
  heap_peak_mb : float;
  cell_ms_p50 : float;
  cell_ms_p95 : float;
  model_luts : float;
  model_ffs : float;
}

type side = (run, string) result
type pair = { seed : int; base : side; change : side }

let last_line s =
  String.split_on_char '\n' s
  |> List.filter (fun l -> String.trim l <> "")
  |> List.rev
  |> function
  | l :: _ -> Some l
  | [] -> None

let side ~status ~stdout =
  let ( let* ) = Option.bind in
  let result =
    let* line = last_line stdout in
    Result.to_option (J.parse line)
  in
  let metric name doc =
    let* metrics = J.member "metrics" doc in
    let* m = J.member name metrics in
    match J.member "value" m with
    | Some (J.Float v) -> Some v
    | Some (J.Int n) -> Some (float_of_int n)
    | _ -> None
  in
  if status = 124 then Error "timed out"
  else if status <> 0 then Error (Printf.sprintf "exited %d" status)
  else
    match result with
    | None -> Error "printed no result line"
    | Some doc -> (
        match J.member "correct" doc with
        | Some (J.Bool true) ->
            let ( let* ) = Result.bind in
            let need name =
              Option.to_result ~none:("reported no " ^ name) (metric name doc)
            in
            let* cells_per_s = need "cells_per_s" in
            let* heap_peak_mb = need "heap_peak_mb" in
            let* cell_ms_p50 = need "cell_ms_p50" in
            let* cell_ms_p95 = need "cell_ms_p95" in
            let* model_luts = need "model_luts" in
            let* model_ffs = need "model_ffs" in
            Ok
              { cells_per_s; heap_peak_mb; cell_ms_p50; cell_ms_p95; model_luts; model_ffs }
        | _ -> Error "reported \"correct\": false")

let ratio_of f p =
  match (p.base, p.change) with
  | Ok b, Ok c -> Some (f c /. f b)
  | _ -> None

let ratio = ratio_of (fun r -> r.cells_per_s)
let heap_ratio = ratio_of (fun r -> r.heap_peak_mb)
let p50_ratio = ratio_of (fun r -> r.cell_ms_p50)
let p95_ratio = ratio_of (fun r -> r.cell_ms_p95)

let model_differs p =
  match (p.base, p.change) with
  | Ok b, Ok c -> b.model_luts <> c.model_luts || b.model_ffs <> c.model_ffs
  | _ -> false

let median_of f pairs =
  match List.sort compare (List.filter_map f pairs) with
  | [] -> None
  | rs -> Some (List.nth rs (List.length rs / 2))

let latency pairs =
  Printf.sprintf "median cell_ms_p50 ratio %s (reported, not judged)"
    (match median_of p50_ratio pairs with
    | Some r -> Printf.sprintf "%.3f" r
    | None -> "-")

let verdict pairs =
  let broken =
    List.find_map
      (fun p ->
        match (p.base, p.change) with
        | Error e, _ -> Some (Printf.sprintf "seed %d: base %s" p.seed e)
        | _, Error e -> Some (Printf.sprintf "seed %d: change %s" p.seed e)
        | Ok _, Ok _ -> None)
      pairs
  in
  let moved = List.find_opt model_differs pairs in
  match broken with
  | Some why -> Error why
  | None when Option.is_some moved ->
      let p = Option.get moved in
      let show = function
        | Ok r -> Printf.sprintf "%.0f LUT / %.0f FF" r.model_luts r.model_ffs
        | Error _ -> "-"
      in
      Error
        (Printf.sprintf "seed %d: the model figures differ, base %s, change %s"
           p.seed (show p.base) (show p.change))
  | None when List.length pairs <> n_pairs ->
      Error (Printf.sprintf "%d pairs, the rule needs %d" (List.length pairs) n_pairs)
  | None ->
      let median_and_count f worse =
        let ratios = List.sort compare (List.filter_map f pairs) in
        (List.nth ratios (n_pairs / 2), List.length (List.filter worse ratios))
      in
      let median, slower = median_and_count ratio (fun r -> r < 1.0) in
      let heap, heavier = median_and_count heap_ratio (fun r -> r > 1.0) in
      let p95, later = median_and_count p95_ratio (fun r -> r > 1.0) in
      let summary =
        Printf.sprintf
          "median ratio %.3f, change slower in %d/%d pairs; median heap ratio \
           %.3f, heavier in %d/%d; median p95 ratio %.3f, slower in %d/%d"
          median slower n_pairs heap heavier n_pairs p95 later n_pairs
      in
      if
        (median < bound && slower >= slower_needed)
        || (heap > heap_bound && heavier >= slower_needed)
        || (p95 > latency_bound && later >= slower_needed)
      then Error summary
      else Ok summary
