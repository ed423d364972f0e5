(* A generator spec that replays a literal schedule table: [arity] values
   per row, [Array.length table / arity] rows; every fill returns [table]
   itself, which the simulator only reads. *)

let spec ~arity table =
  {
    Pv_dataflow.Types.gen_arity = arity;
    gen_rows = Array.length table / arity;
    gen_fill = (fun () -> table);
  }
