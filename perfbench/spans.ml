(* In-memory span recorder for the traced run.

   Each cell or request owns one root span; every call the benchmark makes
   into a layer is a child span carrying the same [rid].  Per-call backend
   time is summed per cell into one child of the simulator span per
   closure, so [count] records how many calls a span stands for.  Nothing
   is written until {!write_chrome} at the end of the run. *)

type span = {
  id : int;
  parent : int;  (** [-1] for a cell/request root *)
  rid : int;  (** the cell's or request's id, shared by all its spans *)
  name : string;
  t0 : int;  (** monotonic ns *)
  dur : int;  (** ns *)
  count : int;  (** calls summed into this span (1 for a single call) *)
}

type t = { mutable spans : span list; mutable next_id : int }

let create () = { spans = []; next_id = 0 }

let fresh t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let add t s = t.spans <- s :: t.spans
let all t = List.rev t.spans

(* time [f] as a child of [parent]; a raising [f] records nothing *)
let time t ~rid ~parent name f =
  let id = fresh t in
  let t0 = Mono.now () in
  let r = f () in
  add t { id; parent; rid; name; t0; dur = Mono.now () - t0; count = 1 };
  r

(* span id -> summed duration of its direct children *)
let child_time spans =
  let h = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace h s.parent
          (s.dur + Option.value (Hashtbl.find_opt h s.parent) ~default:0))
    spans;
  h

(* self time: the span's duration minus its children's *)
let self_times spans =
  let ch = child_time spans in
  List.map
    (fun s -> (s, s.dur - Option.value (Hashtbl.find_opt ch s.id) ~default:0))
    spans

(* Chrome trace-event JSON (loadable in Perfetto): one complete event per
   span, thread = request id *)
let write_chrome path spans =
  let module J = Pv_obs.Json in
  let t_base = List.fold_left (fun m s -> min m s.t0) max_int spans in
  let ev s =
    J.Obj
      [
        ("name", J.Str s.name);
        ("ph", J.Str "X");
        ("pid", J.Int 1);
        ("tid", J.Int s.rid);
        ("ts", J.Float (float_of_int (s.t0 - t_base) /. 1e3));
        ("dur", J.Float (float_of_int s.dur /. 1e3));
        ("args", J.Obj [ ("id", J.Int s.id); ("parent", J.Int s.parent);
                         ("count", J.Int s.count) ]);
      ]
  in
  let oc = open_out path in
  output_string oc (J.to_string (J.Obj [ ("traceEvents", J.List (List.map ev spans)) ]));
  close_out oc
