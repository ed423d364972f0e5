module J = Pv_obs.Json

let workloads = [ "paper_grid"; "squash_storm"; "area_sweep" ]
let n_pairs = 7
let seconds = 5.0
let side_limit_s = 600
let seed i = 100 + i
let bound = 0.90
let slower_needed = 6

type side = (float, string) result
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
  let cells_per_s doc =
    let* metrics = J.member "metrics" doc in
    let* m = J.member "cells_per_s" metrics in
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
        match (J.member "correct" doc, cells_per_s doc) with
        | Some (J.Bool true), Some v -> Ok v
        | Some (J.Bool true), None -> Error "reported no cells_per_s"
        | _ -> Error "reported \"correct\": false")

let ratio p =
  match (p.base, p.change) with
  | Ok b, Ok c -> Some (c /. b)
  | _ -> None

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
  match broken with
  | Some why -> Error why
  | None when List.length pairs <> n_pairs ->
      Error (Printf.sprintf "%d pairs, the rule needs %d" (List.length pairs) n_pairs)
  | None ->
      let ratios = List.sort compare (List.filter_map ratio pairs) in
      let median = List.nth ratios (n_pairs / 2) in
      let slower = List.length (List.filter (fun r -> r < 1.0) ratios) in
      let summary =
        Printf.sprintf "median ratio %.3f, change slower in %d/%d pairs" median
          slower n_pairs
      in
      if median < bound && slower >= slower_needed then Error summary
      else Ok summary
