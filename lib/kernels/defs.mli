(** The benchmark kernels of the paper (Sec. VI-A), the motivating kernels
    of Figs. 2 and 6, and auxiliary stress kernels.

    Sizes default to a few thousand body instances each; every kernel has
    memory-carried dependencies that force an LSQ or PreVV in a dynamically
    scheduled circuit. *)

(** Polynomial multiplication c[i+j] += a[i]*b[j] — compute-bound, limited
    data reuse. *)
val polyn_mult : ?n:int -> unit -> Ast.kernel

(** Two chained matrix multiplications (tmp = A*B; D = tmp*C), (i,k,j)
    order. *)
val two_mm : ?n:int -> unit -> Ast.kernel

(** Three chained matrix multiplications (E = A*B; F = C*D; G = E*F). *)
val three_mm : ?n:int -> unit -> Ast.kernel

(** In-place Gaussian elimination on the trailing submatrix, factor
    computed inline with integer division. *)
val gaussian : ?n:int -> unit -> Ast.kernel

(** Lower-triangular matrix multiplication, (k,i,j) order (outer-loop
    accumulator reuse). *)
val triangular : ?n:int -> unit -> Ast.kernel

(** The same triangular product in (i,k,j) order: deliberately tight
    accumulator reuse that forces PreVV mis-speculation and replay. *)
val triangular_tight : ?n:int -> unit -> Ast.kernel

(** Fig. 2(a): a[b[i]] += A; b[i] += B — sequential-update RAW. *)
val histogram : ?n:int -> unit -> Ast.kernel

(** Fig. 2(b): indices shifted by runtime functions — the dependence
    distance is unknowable at compile time. *)
val fn_dependent : ?n:int -> unit -> Ast.kernel

(** Sec. V-C / Fig. 6: an ambiguous pair whose store sits inside a
    conditional — deadlocks PreVV without fake tokens. *)
val cond_update : ?n:int -> ?threshold:int -> unit -> Ast.kernel

(** Sparse-style scatter-accumulate y[r[i]] += v[i] * x[c[i]]. *)
val spmv_like : ?n:int -> unit -> Ast.kernel

(** In-place FIR smoothing — a loop-carried RAW at distance one (a PreVV
    worst case: every load is premature and wrong). *)
val fir_smooth : ?n:int -> unit -> Ast.kernel

(** Matrix-vector accumulate with distance-one reuse of y[i]. *)
val matvec : ?n:int -> unit -> Ast.kernel

(** Ping-pong two-array 1-D stencil over several time steps. *)
val stencil1d : ?n:int -> ?steps:int -> unit -> Ast.kernel

(** BiCG-style double accumulation (two accumulators, different reuse
    directions). *)
val bicg : ?n:int -> unit -> Ast.kernel

(** Running maximum over a two-slot window: distance-two reuse whose stores
    mostly rewrite unchanged values — where Eq. 5's value validation
    eliminates almost every squash. *)
val running_max : ?n:int -> unit -> Ast.kernel

(** The paper's five evaluation kernels, in Table I/II order. *)
val paper_benchmarks : unit -> Ast.kernel list

(** All bundled kernels (paper benchmarks first). *)
val all : unit -> Ast.kernel list

(** Look a bundled kernel up by name.
    @raise Invalid_argument on an unknown name. *)
val by_name : string -> Ast.kernel

(** [n] accumulations into one array per iteration: [n * n] ambiguous
    pairs on one disambiguation instance (Sec. V-B's overlap chain).  Not
    in {!all}, so the bundled set stays the same. *)
val overlap_chain : n:int -> Ast.kernel
