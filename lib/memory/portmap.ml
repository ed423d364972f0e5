(** Static description of a kernel's memory ports, produced by the
    front-end and consumed by every disambiguation backend.

    Each static load/store site is a numbered port.  Ports on arrays with
    potential inter-iteration dependencies are {e ambiguous} and belong to
    a disambiguation {e instance} (one premature queue + arbiter in PreVV;
    all pooled into the single LSQ in the Dynamatic baselines).  The
    per-group ROM records the original program order of the ambiguous
    ports inside each group (= leaf statement), which is what the group
    allocator of Josipović et al. stores on-chip and what PreVV's arbiter
    consults when two records carry the same iteration number. *)

type op_kind = OLoad | OStore

type port = {
  id : int;
  kind : op_kind;
  array : string;
  instance : int option;  (** disambiguation instance; [None] = direct port *)
  conditional : bool;  (** may be skipped at runtime (needs fake tokens) *)
}

type t = {
  ports : port array;
  n_groups : int;  (** leaf statements *)
  n_instances : int;  (** disambiguation instances (per ambiguous array) *)
  rom : int array array array;
      (** [rom.(inst).(group)] = port ids of instance [inst] occurring in
          group [group], in program order *)
}

let port t id = t.ports.(id)
let is_ambiguous t id = (port t id).instance <> None

(** All ambiguous ports of a group across instances, in program order
    (what the single pooled LSQ allocates per group). *)
let group_ports t group =
  (* port ids are assigned in program order by the analysis, so id order is
     the group's true program order (per-instance ROM positions are only
     meaningful within one instance and must not be merged) *)
  Array.to_list t.ports
  |> List.filter_map (fun p ->
         match p.instance with
         | None -> None
         | Some inst ->
             if Array.exists (fun id -> id = p.id) t.rom.(inst).(group) then
               Some p.id
             else None)
  |> List.sort compare

(** Dense array ids, in first-port order: [ids.(port)] numbers the port's
    array, so per-array state (the BRAM port budgets) lives in flat int
    arrays of length [n] instead of name-keyed tables. *)
let array_ids t =
  let names = Hashtbl.create 8 in
  let ids =
    Array.map
      (fun p ->
        match Hashtbl.find_opt names p.array with
        | Some id -> id
        | None ->
            let id = Hashtbl.length names in
            Hashtbl.replace names p.array id;
            id)
      t.ports
  in
  (ids, Hashtbl.length names)

(** ROM position of a port within its group, used as the tie-break order
    for same-iteration validation. *)
let rom_pos t ~inst ~group ~port =
  let ops = t.rom.(inst).(group) in
  let rec find i =
    if i >= Array.length ops then None
    else if ops.(i) = port then Some i
    else find (i + 1)
  in
  find 0

let pp ppf t =
  Format.fprintf ppf "ports:@\n";
  Array.iter
    (fun p ->
      Format.fprintf ppf "  %d: %s %s%s%s@\n" p.id
        (match p.kind with OLoad -> "load" | OStore -> "store")
        p.array
        (match p.instance with
        | Some i -> Printf.sprintf " [instance %d]" i
        | None -> " [direct]")
        (if p.conditional then " (conditional)" else ""))
    t.ports;
  Format.fprintf ppf "groups: %d, instances: %d@\n" t.n_groups t.n_instances
