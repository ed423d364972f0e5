(* Cycle-attribution profiler: flat preallocated counters so the enabled
   hot path is an array increment and the disabled one a single branch on
   [enabled] at each instrumentation site (the simulator additionally
   caches the flag, so the per-eval cost when off is one load + branch). *)

let phase_circuit_sweep = 0
let phase_arbiter_scan = 1
let phase_pq_validate = 2
let phase_lsq_cam = 3
let phase_mem_service = 4
let n_phases = 5

let phase_name = function
  | 0 -> "circuit_sweep"
  | 1 -> "arbiter_scan"
  | 2 -> "pq_validate"
  | 3 -> "lsq_cam"
  | 4 -> "mem_service"
  | p -> invalid_arg (Printf.sprintf "Prof.phase_name: %d" p)

let reason_starved = 0
let reason_backpressured = 1
let reason_refused = 2
let reason_frozen = 3
let reason_internal = 4
let reason_other = 5
let n_reasons = 6

let reason_name = function
  | 0 -> "starved"
  | 1 -> "backpressured"
  | 2 -> "refused"
  | 3 -> "frozen"
  | 4 -> "internal"
  | 5 -> "other"
  | r -> invalid_arg (Printf.sprintf "Prof.reason_name: %d" r)

type t = {
  enabled : bool;
  phases : int array;  (* n_phases *)
  mutable node_evals : int array;  (* per dense node id *)
  mutable node_stalls : int array;  (* node id * n_reasons, flattened *)
  mutable node_meta : (string * string) array;  (* (opcode, label) *)
  mutable chan_held : int array;  (* per channel id *)
  mutable chan_meta : (string * string) array;  (* (src label, dst label) *)
}

let null =
  {
    enabled = false;
    phases = [||];
    node_evals = [||];
    node_stalls = [||];
    node_meta = [||];
    chan_held = [||];
    chan_meta = [||];
  }

let create () =
  {
    enabled = true;
    phases = Array.make n_phases 0;
    node_evals = [||];
    node_stalls = [||];
    node_meta = [||];
    chan_held = [||];
    chan_meta = [||];
  }

let enabled t = t.enabled

let set_nodes t meta =
  if t.enabled then begin
    let n = Array.length meta in
    t.node_meta <- Array.copy meta;
    t.node_evals <- Array.make n 0;
    t.node_stalls <- Array.make (n * n_reasons) 0
  end

let set_chans t meta =
  if t.enabled then begin
    t.chan_meta <- Array.copy meta;
    t.chan_held <- Array.make (Array.length meta) 0
  end

let chan_held t = t.chan_held

let node_eval t nid =
  if t.enabled then begin
    t.node_evals.(nid) <- t.node_evals.(nid) + 1;
    t.phases.(phase_circuit_sweep) <- t.phases.(phase_circuit_sweep) + 1
  end

let add t ~phase n = if t.enabled then t.phases.(phase) <- t.phases.(phase) + n

let stall t nid ~reason =
  if t.enabled then begin
    let i = (nid * n_reasons) + reason in
    t.node_stalls.(i) <- t.node_stalls.(i) + 1
  end

(* --- reports ------------------------------------------------------- *)

let total t = Array.fold_left ( + ) 0 t.phases
let phase_totals t = Array.copy t.phases

type hot = {
  nid : int;
  opcode : string;
  label : string;
  evals : int;
  stalls : int array;
}

let hot_of t nid =
  let opcode, label =
    if nid < Array.length t.node_meta then t.node_meta.(nid) else ("?", "?")
  in
  {
    nid;
    opcode;
    label;
    evals = t.node_evals.(nid);
    stalls = Array.sub t.node_stalls (nid * n_reasons) n_reasons;
  }

let hot_nodes t ~top =
  let n = Array.length t.node_evals in
  let ids = List.init n (fun i -> i) in
  let ids =
    List.sort
      (fun a b ->
        match compare t.node_evals.(b) t.node_evals.(a) with
        | 0 -> compare a b
        | c -> c)
      ids
  in
  let rec take k = function
    | [] -> []
    | _ when k <= 0 -> []
    | x :: rest -> hot_of t x :: take (k - 1) rest
  in
  take top ids

let folded t ~kernel =
  let buf = Buffer.create 1024 in
  Array.iteri
    (fun nid evals ->
      if evals > 0 then begin
        let opcode, _ = t.node_meta.(nid) in
        Buffer.add_string buf
          (Printf.sprintf "%s;%s;n%d %s %d\n" kernel
             (phase_name phase_circuit_sweep)
             nid opcode evals)
      end)
    t.node_evals;
  for p = 0 to n_phases - 1 do
    if p <> phase_circuit_sweep && t.phases.(p) > 0 then
      Buffer.add_string buf
        (Printf.sprintf "%s;%s %d\n" kernel (phase_name p) t.phases.(p))
  done;
  Buffer.contents buf

let parse_folded s =
  let parse_line ln =
    match String.rindex_opt ln ' ' with
    | None -> Error (Printf.sprintf "no count in folded line %S" ln)
    | Some i -> (
        let stack = String.sub ln 0 i in
        let count = String.sub ln (i + 1) (String.length ln - i - 1) in
        match int_of_string_opt count with
        | None -> Error (Printf.sprintf "bad count in folded line %S" ln)
        | Some c when c < 0 ->
            Error (Printf.sprintf "negative count in folded line %S" ln)
        | Some c ->
            let frames = String.split_on_char ';' stack in
            if List.exists (fun f -> String.trim f = "") frames then
              Error (Printf.sprintf "empty frame in folded line %S" ln)
            else Ok (frames, c))
  in
  let lines =
    List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' s)
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | ln :: rest -> (
        match parse_line ln with
        | Ok row -> go (row :: acc) rest
        | Error _ as e -> e)
  in
  go [] lines

let stalls_to_json stalls =
  Json.Obj
    (List.concat
       (List.init n_reasons (fun r ->
            if stalls.(r) > 0 then [ (reason_name r, Json.Int stalls.(r)) ]
            else [])))

let to_json ?(top = 10) t ~kernel =
  let tot = total t in
  let share p =
    if tot = 0 then 0.0 else float_of_int t.phases.(p) /. float_of_int tot
  in
  Json.Obj
    [
      ("kernel", Json.Str kernel);
      ("total", Json.Int tot);
      ( "phases",
        Json.Obj
          (List.init n_phases (fun p ->
               (phase_name p, Json.Int t.phases.(p)))) );
      ( "phase_share",
        Json.Obj
          (List.init n_phases (fun p -> (phase_name p, Json.Float (share p))))
      );
      ( "hot_nodes",
        Json.List
          (List.map
             (fun h ->
               Json.Obj
                 [
                   ("node", Json.Int h.nid);
                   ("opcode", Json.Str h.opcode);
                   ("label", Json.Str h.label);
                   ("evals", Json.Int h.evals);
                   ("stalls", stalls_to_json h.stalls);
                 ])
             (hot_nodes t ~top)) );
    ]

let pp ?(top = 10) ppf t =
  let tot = total t in
  Format.fprintf ppf "per-phase budget (total %d units):@." tot;
  for p = 0 to n_phases - 1 do
    let c = t.phases.(p) in
    let pct = if tot = 0 then 0.0 else 100.0 *. float_of_int c /. float_of_int tot in
    Format.fprintf ppf "  %-14s %10d  %5.1f%%@." (phase_name p) c pct
  done;
  let hot = hot_nodes t ~top in
  if hot <> [] then begin
    Format.fprintf ppf "hot nodes (top %d by evals):@." top;
    Format.fprintf ppf "  %4s %-8s %-20s %10s  stalls@." "node" "opcode"
      "label" "evals";
    List.iter
      (fun h ->
        let stalls =
          String.concat " "
            (List.concat
               (List.init n_reasons (fun r ->
                    if h.stalls.(r) > 0 then
                      [ Printf.sprintf "%s:%d" (reason_name r) h.stalls.(r) ]
                    else [])))
        in
        Format.fprintf ppf "  %4d %-8s %-20s %10d  %s@." h.nid h.opcode
          h.label h.evals stalls)
      hot
  end

(* --- utilisation view ---------------------------------------------- *)

type node_use = {
  nu_id : int;
  nu_label : string;
  nu_fires : int;
  nu_utilisation : float;
}

type chan_use = {
  cu_id : int;
  cu_src : string;
  cu_dst : string;
  cu_held : int;
  cu_pressure : float;
}

type usage = { cycles : int; nodes : node_use list; chans : chan_use list }

(* Both lists are built in descending id order and stably sorted, so ties
   keep the highest id first. *)
let usage t ~cycles ~fires =
  let cycles = max 1 cycles in
  let rate k = float_of_int k /. float_of_int cycles in
  let nodes = ref [] in
  Array.iteri
    (fun nid (opcode, label) ->
      if opcode <> "sink" then
        nodes :=
          {
            nu_id = nid;
            nu_label = Printf.sprintf "%s#%d" label nid;
            nu_fires = fires.(nid);
            nu_utilisation = rate fires.(nid);
          }
          :: !nodes)
    t.node_meta;
  let chans = ref [] in
  Array.iteri
    (fun cid (src, dst) ->
      chans :=
        {
          cu_id = cid;
          cu_src = src;
          cu_dst = dst;
          cu_held = t.chan_held.(cid);
          cu_pressure = rate t.chan_held.(cid);
        }
        :: !chans)
    t.chan_meta;
  {
    cycles;
    nodes =
      List.stable_sort
        (fun a b -> compare a.nu_utilisation b.nu_utilisation)
        !nodes;
    chans =
      List.stable_sort (fun a b -> compare b.cu_pressure a.cu_pressure) !chans;
  }

let usage_to_json u ~outcome =
  Json.Obj
    [
      ("cycles", Json.Int u.cycles);
      ("outcome", Json.Str outcome);
      ( "nodes",
        Json.List
          (List.map
             (fun n ->
               Json.Obj
                 [
                   ("id", Json.Int n.nu_id);
                   ("label", Json.Str n.nu_label);
                   ("fires", Json.Int n.nu_fires);
                   ("utilisation", Json.Float n.nu_utilisation);
                 ])
             u.nodes) );
      ( "chans",
        Json.List
          (List.map
             (fun c ->
               Json.Obj
                 [
                   ("id", Json.Int c.cu_id);
                   ("src", Json.Str c.cu_src);
                   ("dst", Json.Str c.cu_dst);
                   ("held", Json.Int c.cu_held);
                   ("pressure", Json.Float c.cu_pressure);
                 ])
             u.chans) );
    ]

let initiation_interval u ~instances =
  if instances = 0 then infinity
  else float_of_int u.cycles /. float_of_int instances

let pp_usage ?(top = 8) ppf u =
  Format.fprintf ppf "most backpressured channels:@\n";
  List.iteri
    (fun k c ->
      if k < top then
        Format.fprintf ppf "  %-18s -> %-18s held %5.1f%% of cycles@\n" c.cu_src
          c.cu_dst (100.0 *. c.cu_pressure))
    u.chans;
  Format.fprintf ppf "least utilised components:@\n";
  List.iteri
    (fun k n ->
      if k < top then
        Format.fprintf ppf "  %-24s fired %5.1f%% of cycles@\n" n.nu_label
          (100.0 *. n.nu_utilisation))
    u.nodes
