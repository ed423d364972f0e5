(** A parser for the kernel mini-language, accepting the C-like surface
    syntax the paper's listings use (Fig. 2): array and constant
    declarations followed by loop nests, with [+=]/[-=] sugar on stores,
    [if/else] (store-only bodies), and both comment styles.  The grammar is
    exactly what {!Ast.pp_kernel} prints, so pretty-printing round-trips. *)

type error = { line : int; col : int; message : string }

val pp_error : Format.formatter -> error -> unit

exception Error of error

(** Parse a kernel from source text.  The kernel name comes from an
    optional [// kernel NAME] header line, else [name]. *)
val kernel : ?name:string -> string -> (Ast.kernel, error) result

(** Parse a file; the default kernel name is the file's basename. *)
val from_file : string -> (Ast.kernel, error) result
