(* Cycle-exact population pin.  The two engines share [eval_slot] and the
   channel register operations, so test_sim_equiv cannot see a change to
   register semantics: both engines would move together.  This suite pins
   what a population of runs produced when the pin was recorded: each
   run's outcome and cycle count, and digests of its per-node fire counts,
   final memory and backend statistics.  Post-mortem text is deliberately
   left out; its wording may change without any cycle moving.

   The population: every bundled kernel under every registered scheme,
   fault-free and under the seeded fault plans 1 and 2, plus generated
   kernels of the default and the storm shape under every scheme.

   The expected table is sim_pin.txt, one line per run.  A pinned entry
   that moves is a semantic change to the simulator or a backend, not a
   figure to refresh.  [SIM_PIN_RECORD=FILE] writes the current table to
   FILE instead of checking it. *)

open Pv_core
module Sim = Pv_dataflow.Sim
module Memif = Pv_dataflow.Memif
module Gen = Pv_kernels.Generate

let schemes =
  List.map (fun (module M : Scheme.S) -> (M.name, M.config)) (Scheme.all ())

(* the storm shape: perfbench's defect-cell spec *)
let storm_spec =
  { Gen.default_spec with Gen.max_stmts = 3; array_len = 48; trip = 24 }

let default_seeds = List.init 16 (fun i -> 50000 + i)
let storm_seeds = List.init 10 (fun i -> 31600 + i)

let digest s = String.sub (Digest.to_hex (Digest.string s)) 0 12

let digest_ints a =
  digest (String.concat "," (Array.to_list (Array.map string_of_int a)))

let line name (r : Pipeline.result) =
  let outcome, at =
    match r.Pipeline.outcome with
    | Sim.Finished { cycles } -> ("finished", cycles)
    | Sim.Deadlock { at_cycle; _ } -> ("deadlock", at_cycle)
    | Sim.Timeout { at_cycle; _ } -> ("timeout", at_cycle)
  in
  Printf.sprintf "%s %s %d fires=%s mem=%s stats=%s" name outcome at
    (digest_ints r.Pipeline.run_stats.Sim.node_fires)
    (digest_ints r.Pipeline.mem)
    (digest (Format.asprintf "%a" Memif.pp_stats r.Pipeline.mem_stats))

(* every run of the population, as (name, thunk producing its line) *)
let population () =
  let bundled =
    List.concat_map
      (fun k ->
        let compiled = Pipeline.compile k in
        List.concat_map
          (fun fseed ->
            let faults =
              if fseed = 0 then [] else Pipeline.seeded_faults compiled ~seed:fseed
            in
            let sim_cfg = { Sim.default_config with Sim.faults } in
            List.map
              (fun (sname, dis) ->
                let name =
                  Printf.sprintf "%s/%s/f%d" k.Pv_kernels.Ast.name sname fseed
                in
                (name, fun () -> Pipeline.simulate ~sim_cfg compiled dis))
              schemes)
          [ 0; 1; 2 ])
      (Pv_kernels.Defs.all ())
  in
  let generated tag spec seeds =
    List.concat_map
      (fun seed ->
        let k = Gen.kernel ~spec seed in
        let init = Gen.init_for ~spec k seed in
        let compiled = Pipeline.compile k in
        List.map
          (fun (sname, dis) ->
            ( Printf.sprintf "%s%d/%s" tag seed sname,
              fun () -> Pipeline.simulate ~init compiled dis ))
          schemes)
      seeds
  in
  bundled
  @ generated "default" Gen.default_spec default_seeds
  @ generated "storm" storm_spec storm_seeds

let current () = List.map (fun (name, run) -> line name (run ())) (population ())

let expected () =
  In_channel.with_open_text "sim_pin.txt" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

let test_pin () =
  let exp = expected () and cur = current () in
  Alcotest.(check int) "population size" (List.length exp) (List.length cur);
  List.iter2 (fun e c -> Alcotest.(check string) "pinned run" e c) exp cur

let () =
  match Sys.getenv_opt "SIM_PIN_RECORD" with
  | Some file ->
      Out_channel.with_open_text file (fun oc ->
          List.iter (fun l -> output_string oc (l ^ "\n")) (current ()))
  | None ->
      Alcotest.run "sim_pin"
        [
          ( "population",
            [ Alcotest.test_case "cycle-exact pin" `Quick test_pin ] );
        ]
