(** Optional kernel-level optimisations, the kind LLVM would run before
    Dynamatic sees the code.  Both preserve interpreter semantics exactly;
    both are off by default so the paper reproduction measures the
    unoptimised circuits. *)

(** Fold arithmetic over literals and parameters (including the [x*1],
    [x+0], [x*0] identities).  The parameter list is retained but no
    reference to it survives in the body. *)
val constant_fold : Pv_kernels.Ast.kernel -> Pv_kernels.Ast.kernel

(** Total removable loads across the kernel. *)
val cse_opportunity : Pv_kernels.Ast.kernel -> int
