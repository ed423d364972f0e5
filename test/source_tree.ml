(* Helpers for the grep-enforced source rules (test_scheme, test_parallel):
   find the checkout and list its OCaml sources. *)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n > 0 && go 0

(* Tests run under _build/default/test; walk up to the checkout root. *)
let rec root dir =
  if Sys.file_exists (Filename.concat dir "lib/core/scheme.ml") then Some dir
  else
    let parent = Filename.dirname dir in
    if parent = dir then None else root parent

let rec ml_files dir =
  Array.to_list (Sys.readdir dir)
  |> List.concat_map (fun entry ->
         let path = Filename.concat dir entry in
         if Sys.is_directory path then ml_files path
         else if
           Filename.check_suffix entry ".ml"
           || Filename.check_suffix entry ".mli"
         then [ path ]
         else [])
