(** The benchmark kernels of the paper (Sec. VI-A) plus the motivating and
    auxiliary kernels of Figs. 2 and 6.

    Loop orders follow the layouts HLS users write for dataflow pipelining
    (accumulator reuse separated by an inner sweep), which is also what
    gives the memory system its mix of long- and short-distance RAW
    hazards.  All have memory-carried dependencies that force an LSQ or
    PreVV in a dynamically scheduled circuit. *)

open Ast

(* integer (not expression) arithmetic for array sizing *)
let ( *! ) = Stdlib.( * )
let ( +! ) = Stdlib.( + )
let ( -! ) = Stdlib.( - )

(** Polynomial multiplication: c[i+j] += a[i] * b[j].  Compute-bound,
    limited data reuse (the paper uses it to stress the LSQ). *)
let polyn_mult ?(n = 48) () =
  {
    name = "polyn_mult";
    arrays = [ ("a", n); ("b", n); ("c", (2 *! n) -! 1) ];
    params = [ ("N", n) ];
    body =
      [
        for_ "i" (i 0) (v "N")
          [
            for_ "j" (i 0) (v "N")
              [
                store "c"
                  (v "i" + v "j")
                  (idx "c" (v "i" + v "j") + (idx "a" (v "i") * idx "b" (v "j")));
              ];
          ];
      ];
  }

(* A single matrix product acc[i][j] += x[i][k] * y[k][j], written in
   (i, k, j) order so that the accumulator reuse distance is a full row. *)
let matmul_body ~x ~y ~acc n =
  for_ "i" (i 0) (i n)
    [
      for_ "k" (i 0) (i n)
        [
          for_ "j" (i 0) (i n)
            [
              store acc
                ((v "i" * i n) + v "j")
                (idx acc ((v "i" * i n) + v "j")
                + (idx x ((v "i" * i n) + v "k") * idx y ((v "k" * i n) + v "j")));
            ];
        ];
    ]

(** Two chained matrix multiplications: tmp = A*B, then D = tmp*C. *)
let two_mm ?(n = 10) () =
  {
    name = "2mm";
    arrays =
      [ ("A", n *! n); ("B", n *! n); ("C", n *! n); ("tmp", n *! n); ("D", n *! n) ];
    params = [];
    body =
      [ matmul_body ~x:"A" ~y:"B" ~acc:"tmp" n; matmul_body ~x:"tmp" ~y:"C" ~acc:"D" n ];
  }

(** Three chained matrix multiplications: E = A*B, F = C*D, G = E*F. *)
let three_mm ?(n = 9) () =
  {
    name = "3mm";
    arrays =
      [
        ("A", n *! n);
        ("B", n *! n);
        ("C", n *! n);
        ("D", n *! n);
        ("E", n *! n);
        ("F", n *! n);
        ("G", n *! n);
      ];
    params = [];
    body =
      [
        matmul_body ~x:"A" ~y:"B" ~acc:"E" n;
        matmul_body ~x:"C" ~y:"D" ~acc:"F" n;
        matmul_body ~x:"E" ~y:"F" ~acc:"G" n;
      ];
  }

(** In-place Gaussian elimination on the trailing submatrix, factor
    computed inline (the j sweep starts at k+1, so column k — the factor's
    numerator — is never overwritten during a pivot step).  Integer
    division, like the fixed-point HLS kernels the paper targets. *)
let gaussian ?(n = 20) () =
  {
    name = "gaussian";
    arrays = [ ("a", n *! n) ];
    params = [];
    body =
      [
        for_ "k" (i 0) (i n)
          [
            for_ "i" (v "k" + i 1) (i n)
              [
                for_ "j" (v "k" + i 1) (i n)
                  [
                    store "a"
                      ((v "i" * i n) + v "j")
                      (idx "a" ((v "i" * i n) + v "j")
                      - (idx "a" ((v "i" * i n) + v "k")
                         / idx "a" ((v "k" * i n) + v "k")
                        * idx "a" ((v "k" * i n) + v "j")));
                  ];
              ];
          ];
      ];
  }

(** Lower-triangular matrix multiplication c[i][j] += a[i][k] * b[k][j]
    (j <= k <= i), the triangular kernel of the paper, in (k, i, j) order
    so the accumulator reuse spans the outer loop. *)
let triangular ?(n = 24) () =
  {
    name = "triangular";
    arrays = [ ("a", n *! n); ("b", n *! n); ("c", n *! n) ];
    params = [];
    body =
      [
        for_ "k" (i 0) (i n)
          [
            for_ "i" (v "k") (i n)
              [
                for_ "j" (i 0) (v "k" + i 1)
                  [
                    store "c"
                      ((v "i" * i n) + v "j")
                      (idx "c" ((v "i" * i n) + v "j")
                      + (idx "a" ((v "i" * i n) + v "k")
                        * idx "b" ((v "k" * i n) + v "j")));
                  ];
              ];
          ];
      ];
  }

(** The same product in (i, k, j) order: the accumulator is rewritten after
    only k+1 inner instances, a deliberately tight-reuse stress that makes
    PreVV mis-speculate and replay (used by the squash ablation). *)
let triangular_tight ?(n = 24) () =
  {
    name = "triangular_tight";
    arrays = [ ("a", n *! n); ("b", n *! n); ("c", n *! n) ];
    params = [];
    body =
      [
        for_ "i" (i 0) (i n)
          [
            for_ "k" (i 0) (v "i" + i 1)
              [
                for_ "j" (i 0) (v "k" + i 1)
                  [
                    store "c"
                      ((v "i" * i n) + v "j")
                      (idx "c" ((v "i" * i n) + v "j")
                      + (idx "a" ((v "i" * i n) + v "k")
                        * idx "b" ((v "k" * i n) + v "j")));
                  ];
              ];
          ];
      ];
  }

(** Fig. 2(a): sequential-update RAW — a[b[i]] += A; b[i] += B. *)
let histogram ?(n = 64) () =
  {
    name = "histogram";
    arrays = [ ("a", n); ("b", n) ];
    params = [ ("A", 3); ("B", 1) ];
    body =
      [
        for_ "i" (i 0) (i n)
          [
            store "a" (idx "b" (v "i")) (idx "a" (idx "b" (v "i")) + v "A");
            store "b" (v "i") (idx "b" (v "i") + v "B");
          ];
      ];
  }

(** Fig. 2(b): function-dependent RAW — indices shifted by runtime
    functions f(x) = i mod 4 and g(x) = (3*i) mod 5, so the dependence
    distance is unknowable at compile time. *)
let fn_dependent ?(n = 48) () =
  {
    name = "fn_dependent";
    arrays = [ ("a", (2 *! n) +! 8); ("b", n +! 8) ];
    params = [ ("A", 2); ("B", 1) ];
    body =
      [
        for_ "i" (i 0) (i n)
          [
            store "a"
              (idx "b" (v "i") + (v "i" % i 4))
              (idx "a" (idx "b" (v "i") + (v "i" % i 4)) + v "A");
            store "b"
              (v "i" + (v "i" * i 3 % i 5))
              (idx "b" (v "i" + (v "i" * i 3 % i 5)) + v "B");
          ];
      ];
  }

(** Sec. V-C / Fig. 6: an ambiguous pair whose store sits inside a
    conditional, the shape that deadlocks PreVV without fake tokens. *)
let cond_update ?(n = 64) ?(threshold = 50) () =
  {
    name = "cond_update";
    arrays = [ ("x", n); ("y", n); ("s", n) ];
    params = [ ("T", threshold) ];
    body =
      [
        for_ "i" (i 0) (i n)
          [
            If
              ( idx "x" (v "i") > v "T",
                [
                  store "s" (idx "y" (v "i"))
                    (idx "s" (idx "y" (v "i")) + idx "x" (v "i"));
                ],
                [] );
          ];
      ];
  }

(** Sparse-style scatter-accumulate: y[r[i]] += v[i] * x[c[i]]. *)
let spmv_like ?(n = 96) () =
  {
    name = "spmv_like";
    arrays = [ ("r", n); ("c", n); ("vv", n); ("x", n); ("y", n) ];
    params = [];
    body =
      [
        for_ "i" (i 0) (i n)
          [
            store "y" (idx "r" (v "i"))
              (idx "y" (idx "r" (v "i")) + (idx "vv" (v "i") * idx "x" (idx "c" (v "i"))));
          ];
      ];
  }

(** In-place FIR-style smoothing: x[i] = (x[i-1] + x[i] + x[i+1]) / 3 —
    a loop-carried RAW at distance one, fully affine. *)
let fir_smooth ?(n = 96) () =
  {
    name = "fir_smooth";
    arrays = [ ("x", n) ];
    params = [];
    body =
      [
        for_ "i" (i 1) (i (n -! 1))
          [
            store "x" (v "i")
              ((idx "x" (v "i" - i 1) + idx "x" (v "i") + idx "x" (v "i" + i 1))
              / i 3);
          ];
      ];
  }

(** Matrix-vector accumulate: y[i] += A[i][j] * x[j], (i outer, j inner);
    each y element is rewritten across the whole j sweep. *)
let matvec ?(n = 40) () =
  {
    name = "matvec";
    arrays = [ ("A", n *! n); ("x", n); ("y", n) ];
    params = [];
    body =
      [
        for_ "i" (i 0) (i n)
          [
            for_ "j" (i 0) (i n)
              [
                store "y" (v "i")
                  (idx "y" (v "i") + (idx "A" ((v "i" * i n) + v "j") * idx "x" (v "j")));
              ];
          ];
      ];
  }

(** Two-pass 1-D stencil over a ping-pong pair with a final copy-back —
    WAR and RAW through both arrays across passes. *)
let stencil1d ?(n = 64) ?(steps = 4) () =
  {
    name = "stencil1d";
    arrays = [ ("u", n); ("w", n) ];
    params = [];
    body =
      [
        for_ "t" (i 0) (i steps)
          [
            for_ "i2" (i 1) (i (n -! 1))
              [
                store "w" (v "i2")
                  ((idx "u" (v "i2" - i 1) + (i 2 * idx "u" (v "i2"))
                   + idx "u" (v "i2" + i 1))
                  / i 4);
              ];
            for_ "i3" (i 1) (i (n -! 1))
              [ store "u" (v "i3") (idx "w" (v "i3")) ];
          ];
      ];
  }

(** BiCG-style double accumulation: s[j] += A[i][j]*r[i] and q[i] += A[i][j]*p[j]
    in the same body — two independent accumulators with different reuse
    directions (s is rewritten every inner iteration). *)
let bicg ?(n = 24) () =
  {
    name = "bicg";
    arrays = [ ("A", n *! n); ("r", n); ("p", n); ("s", n); ("q", n) ];
    params = [];
    body =
      [
        for_ "i" (i 0) (i n)
          [
            for_ "j" (i 0) (i n)
              [
                store "s" (v "j")
                  (idx "s" (v "j") + (idx "A" ((v "i" * i n) + v "j") * idx "r" (v "i")));
                store "q" (v "i")
                  (idx "q" (v "i") + (idx "A" ((v "i" * i n) + v "j") * idx "p" (v "j")));
              ];
          ];
      ];
  }

(** Running maximum over a two-slot window: m[i mod 2] = max(m[i mod 2],
    x[i]).  The reuse distance (2) is below the pipeline depth, so every
    load is genuinely premature; once the window saturates, stores rewrite
    the value already present — the case where Eq. 5's value validation
    (as opposed to address-only checking) eliminates almost every squash. *)
let running_max ?(n = 160) () =
  {
    name = "running_max";
    arrays = [ ("m", 2); ("x", n) ];
    params = [];
    body =
      [
        for_ "i" (i 0) (i n)
          [
            store "m" (v "i" % i 2)
              (Bin (Pv_dataflow.Types.Max, idx "m" (v "i" % i 2), idx "x" (v "i")));
          ];
      ];
  }

(** The paper's five evaluation kernels, in Table I/II order. *)
let paper_benchmarks () =
  [ polyn_mult (); two_mm (); three_mm (); gaussian (); triangular () ]

let all () =
  paper_benchmarks ()
  @ [
      histogram ();
      fn_dependent ();
      cond_update ();
      spmv_like ();
      triangular_tight ();
      fir_smooth ();
      matvec ();
      stencil1d ();
      bicg ();
      running_max ();
    ]

let by_name name =
  match List.find_opt (fun k -> String.equal k.name name) (all ()) with
  | Some k -> k
  | None -> invalid_arg (Printf.sprintf "unknown kernel %S" name)

(** [n] accumulations into one array per iteration, acc[(i+k) mod 64] +=
    src[i] for k < n: every load of [acc] meets every store of [acc], so
    the chain forms [n * n] ambiguous pairs (Sec. V-B's overlap degree
    [n]) on one disambiguation instance.  Not in {!all}. *)
let overlap_chain ~n =
  {
    name = Printf.sprintf "overlap%d" n;
    arrays = [ ("acc", 64); ("src", 64) ];
    params = [];
    body =
      [
        for_ "i" (i 0) (i 48)
          (List.init n (fun k ->
               store "acc"
                 ((v "i" + i k) % i 64)
                 (idx "acc" ((v "i" + i k) % i 64) + idx "src" (v "i"))));
      ];
  }
