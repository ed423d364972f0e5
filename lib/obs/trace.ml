type event = {
  name : string;
  ph : char;
  ts : int;
  dur : int;
  tid : int;
  args : (string * int) list;
}

type t = {
  enabled : bool;
  limit : int;
  mutable buf : event list; (* newest first *)
  mutable count : int;
  mutable dropped : int;
}

let null = { enabled = false; limit = 0; buf = []; count = 0; dropped = 0 }

let create ?(limit = 1_000_000) () =
  { enabled = true; limit; buf = []; count = 0; dropped = 0 }

let enabled t = t.enabled

let tid_sim = 1
let tid_backend = 2
let tid_arbiter = 3
let tid_queue = 4
let tid_fault = 5

let tid_name = function
  | 1 -> "sim"
  | 2 -> "backend"
  | 3 -> "arbiter"
  | 4 -> "queue"
  | 5 -> "fault"
  | n -> Printf.sprintf "tid-%d" n

let push t ev =
  if t.count >= t.limit then t.dropped <- t.dropped + 1
  else (
    t.buf <- ev :: t.buf;
    t.count <- t.count + 1)

let instant t ~tid ~ts ?(args = []) name =
  if t.enabled then push t { name; ph = 'i'; ts; dur = 0; tid; args }

let complete t ~tid ~ts ~dur ?(args = []) name =
  if t.enabled then push t { name; ph = 'X'; ts; dur; tid; args }

let counter t ~tid ~ts name v =
  if t.enabled then
    push t { name; ph = 'C'; ts; dur = 0; tid; args = [ ("value", v) ] }

let events t = List.rev t.buf
let event_count t = t.count
let dropped t = t.dropped

(* ------------------------------------------------------------------ *)
(* Chrome trace-event export                                           *)
(* ------------------------------------------------------------------ *)

let pid = 1

let meta_event ~name ~tid fields =
  Json.Obj
    ([
       ("name", Json.Str name);
       ("ph", Json.Str "M");
       ("pid", Json.Int pid);
       ("tid", Json.Int tid);
     ]
    @ [ ("args", Json.Obj fields) ])

let event_json ev =
  let base =
    [
      ("name", Json.Str ev.name);
      ("ph", Json.Str (String.make 1 ev.ph));
      ("ts", Json.Int ev.ts);
      ("pid", Json.Int pid);
      ("tid", Json.Int ev.tid);
    ]
  in
  let base = if ev.ph = 'X' then base @ [ ("dur", Json.Int ev.dur) ] else base in
  let base = if ev.ph = 'i' then base @ [ ("s", Json.Str "t") ] else base in
  let base =
    if ev.args = [] then base
    else
      base
      @ [ ("args", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) ev.args)) ]
  in
  Json.Obj base

let to_json ?(process = "prevv") t =
  let evs = events t in
  let tids =
    List.fold_left (fun acc ev -> if List.mem ev.tid acc then acc else ev.tid :: acc) [] evs
    |> List.sort compare
  in
  let meta =
    meta_event ~name:"process_name" ~tid:0 [ ("name", Json.Str process) ]
    :: List.map
         (fun tid ->
           meta_event ~name:"thread_name" ~tid
             [ ("name", Json.Str (tid_name tid)) ])
         tids
  in
  Json.Obj
    [
      ("traceEvents", Json.List (meta @ List.map event_json evs));
      ("displayTimeUnit", Json.Str "ns");
      ( "otherData",
        Json.Obj
          ([
             ("tool", Json.Str "prevv_cli");
             ("ts_unit", Json.Str "cycle");
             ("dropped_events", Json.Int t.dropped);
           ]
          @
          (* truncation is loud: a capped buffer used to drop silently *)
          if t.dropped = 0 then []
          else
            [
              ("truncated", Json.Bool true);
              ( "warning",
                Json.Str
                  (Printf.sprintf
                     "trace buffer full: %d event(s) past the %d-event cap \
                      were dropped; raise the Trace.create ~limit"
                     t.dropped t.limit) );
            ]) );
    ]

let write ?process t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let buf = Buffer.create 65536 in
      Json.to_buffer buf (to_json ?process t);
      Buffer.add_char buf '\n';
      Buffer.output_buffer oc buf)
