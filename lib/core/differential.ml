type row = {
  scheme : string;
  rank : int option;
  cycles : int;
  finished : bool;
  verified : bool;
  degraded : bool;
}

type report = {
  kernel : string;
  rows : row list;
  agree : bool;
  ordering_ok : bool;
  violations : string list;
}

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* Chain position of a scheme name: oracle 0, prevv* 1, dynamatic 2,
   serial 3; anything else (fast-lsq, future schemes) unranked. *)
let rank_of name =
  if name = "oracle" then Some 0
  else if starts_with ~prefix:"prevv" name then Some 1
  else if name = "dynamatic" then Some 2
  else if name = "serial" then Some 3
  else None

let run ?sim_cfg ?init ?schemes (kernel : Pv_kernels.Ast.kernel) : report =
  let schemes = match schemes with Some s -> s | None -> Scheme.all () in
  let compiled = Pipeline.compile kernel in
  let runs =
    List.map
      (fun (module M : Scheme.S) ->
        let r = Pipeline.simulate ?sim_cfg ?init compiled M.config in
        let finished =
          match r.Pipeline.outcome with
          | Pv_dataflow.Sim.Finished _ -> true
          | _ -> false
        in
        let verified = finished && Pipeline.verify ?init compiled r = [] in
        let row =
          {
            scheme = M.name;
            rank = rank_of M.name;
            cycles = r.Pipeline.cycles;
            finished;
            verified;
            degraded = r.Pipeline.mem_stats.Pv_dataflow.Memif.degraded > 0;
          }
        in
        (row, r.Pipeline.mem))
      schemes
  in
  let rows = List.map fst runs in
  let agree =
    List.for_all (fun r -> r.finished && r.verified) rows
    &&
    match runs with
    | [] -> true
    | (_, m0) :: rest -> List.for_all (fun (_, m) -> m = m0) rest
  in
  (* bound chain: for each pair of occupied adjacent ranks, the slowest of
     the lower rank must not exceed the fastest of the higher one *)
  let ranked =
    List.filter_map
      (fun r ->
        match r.rank with Some k when r.finished -> Some (k, r) | _ -> None)
      rows
  in
  let groups =
    List.sort_uniq compare (List.map fst ranked)
    |> List.map (fun k -> List.filter (fun (k', _) -> k' = k) ranked
                          |> List.map snd)
  in
  let extreme cmp l =
    List.fold_left (fun acc r -> if cmp r.cycles acc.cycles then r else acc)
      (List.hd l) (List.tl l)
  in
  let rec chain violations = function
    | lower :: (upper :: _ as rest) ->
        let slow = extreme ( > ) lower and fast = extreme ( < ) upper in
        let violations =
          if slow.cycles > fast.cycles then
            Printf.sprintf "%s (%d cycles) > %s (%d cycles)" slow.scheme
              slow.cycles fast.scheme fast.cycles
            :: violations
          else violations
        in
        chain violations rest
    | _ -> List.rev violations
  in
  let violations = chain [] groups in
  {
    kernel = kernel.Pv_kernels.Ast.name;
    rows;
    agree;
    ordering_ok = violations = [];
    violations;
  }

let ok r = r.agree && r.ordering_ok

let pp ppf r =
  Format.fprintf ppf "@[<v>%s:@," r.kernel;
  List.iter
    (fun row ->
      Format.fprintf ppf "  %-10s %8d cycles  %s%s%s@," row.scheme row.cycles
        (if not row.finished then "DID-NOT-FINISH"
         else if row.verified then "verified"
         else "MEMORY-MISMATCH")
        (if row.degraded then " degraded" else "")
        (match row.rank with
        | Some k -> Printf.sprintf "  (chain rank %d)" k
        | None -> "  (unranked)"))
    r.rows;
  Format.fprintf ppf "  agree=%b ordering_ok=%b@," r.agree r.ordering_ok;
  List.iter (fun v -> Format.fprintf ppf "  VIOLATION: %s@," v) r.violations;
  Format.fprintf ppf "@]"
