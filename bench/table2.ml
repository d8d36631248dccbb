(* Table 2: sequential performance of compiled DMLL vs the hand-optimized
   reference, with the optimizations the compiler applied.

   Every column is a REAL wall-clock measurement in this process, median
   of [runs] after one warm-up run: DMLL runs the fully optimized program
   through the closure backend (compiled once) and through the native
   backend (the ocamlopt-compiled kernel, dynlinked, its inputs bound
   once, so only the kernel body is timed), and the reference is the
   direct OCaml implementation in Dmll_apps/Dmll_graph.  The paper's C++
   gap was <=25%; the closure backend additionally pays one indirect call
   per residual IR node that does not fold into its consumer (see
   DESIGN.md §2 and EXPERIMENTS.md), so its gap is larger, but the
   asymptotics — one fused traversal, unboxed storage — are the same. *)

module V = Dmll_interp.Value
module T = Dmll_util.Table

type row = {
  name : string;
  dataset : string;
  opts : string list;
  native_s : float option;  (** generated OCaml compiled by ocamlopt, dynlinked *)
  closure_s : float;  (** in-process closure backend *)
  ref_s : float;
  per_iter : bool;
}

let measure = Dmll_util.Timing.measure

(* The native column (the ablation's too): resolve the kernel, bind the
   inputs once, gate the value against [reference] at 1e-6, then time
   the bound thunk with the closure column's protocol.  [None] when the
   value does not match. *)
let native_seconds ~runs ~(reference : V.t) ~inputs (e : Dmll_ir.Exp.exp) :
    float option =
  let kernel, _ = Dmll_backend.Native.Jit.resolve e in
  let run = kernel inputs in
  if V.approx_equal ~eps:1e-6 reference (run ()) then Some (measure ~runs run)
  else None

let bench_app ~name ~dataset ~per_iter ~(program : Dmll_ir.Exp.exp)
    ~(inputs : (string * V.t) list) ~(reference : unit -> unit) ~runs : row =
  let compiled = Dmll.compile_with Dmll.Config.default program in
  let exe = Dmll_backend.Closure.compile compiled.Dmll.final in
  let reference_value = exe.Dmll_backend.Closure.run ~inputs () in
  let closure_s = measure ~runs (fun () -> exe.Dmll_backend.Closure.run ~inputs ()) in
  (* the native (ocamlopt-compiled) backend, with a correctness gate *)
  let native_s =
    match native_seconds ~runs ~reference:reference_value ~inputs compiled.Dmll.final with
    | Some s -> Some s
    | None ->
        Printf.eprintf "table2: native result mismatch for %s\n" name;
        None
    | exception Dmll_backend.Native.Native_error m ->
        Printf.eprintf "table2: native backend failed for %s: %s\n" name
          (String.sub m 0 (Stdlib.min 200 (String.length m)));
        None
    | exception Dmll_backend.Codegen_ocaml.Unsupported m ->
        Printf.eprintf "table2: native codegen unsupported for %s: %s\n" name m;
        None
  in
  let ref_s = measure ~runs reference in
  { name; dataset; opts = Dmll.optimizations compiled; native_s; closure_s; ref_s;
    per_iter }

let interesting_opts =
  [ "groupby-reduce"; "conditional-reduce"; "column-to-row"; "row-to-column";
    "pipeline-fusion"; "horizontal-fusion"; "input-soa"; "dead-field-elim";
    "aos-to-soa"; "cse-let-reuse"; "cse-introduce"; "code-motion";
    "dedup-generator"; "struct-unwrap" ]

let opt_summary opts =
  let shown = List.filter (fun o -> List.mem o interesting_opts) opts in
  String.concat ", " shown

let rows ?(runs = 3) () : row list =
  let ml = Lazy.force Datasets.ml_data in
  let cents = Lazy.force Datasets.centroids in
  let q1 = Lazy.force Datasets.q1_table in
  let genes = Lazy.force Datasets.genes in
  let pr = Lazy.force Datasets.pr_graph in
  let tri = Lazy.force Datasets.tri_graph in
  let rows = Datasets.ml_rows and cols = Datasets.ml_cols and k = Datasets.kmeans_k in
  let labels = Dmll_data.Gaussian.binary_labels ml in
  [ bench_app ~name:"TPC-H Query 1" ~runs
      ~dataset:(Printf.sprintf "%dk lineitems" (q1.Dmll_data.Tpch.n / 1000))
      ~per_iter:false
      ~program:(Dmll_apps.Tpch_q1.program ())
      ~inputs:(Dmll_apps.Tpch_q1.soa_inputs q1)
      ~reference:(fun () -> ignore (Dmll_apps.Tpch_q1.handopt q1));
    bench_app ~name:"Gene Barcoding" ~runs
      ~dataset:(Printf.sprintf "%dk reads" (genes.Dmll_data.Genes.n / 1000))
      ~per_iter:false
      ~program:(Dmll_apps.Gene.program ())
      ~inputs:(Dmll_apps.Gene.soa_inputs genes)
      ~reference:(fun () -> ignore (Dmll_apps.Gene.handopt genes));
    bench_app ~name:"GDA" ~runs
      ~dataset:(Printf.sprintf "%dk x %d" (rows / 1000) cols)
      ~per_iter:false
      ~program:(Dmll_apps.Gda.program ~rows ~cols ())
      ~inputs:(Dmll_apps.Gda.inputs ml)
      ~reference:(fun () ->
        ignore
          (Dmll_apps.Gda.handopt ~data:ml.Dmll_data.Gaussian.data ~labels ~rows ~cols ()));
    bench_app ~name:"k-means" ~runs
      ~dataset:(Printf.sprintf "%dk x %d, k=%d" (rows / 1000) cols k)
      ~per_iter:true
      ~program:(Dmll_apps.Kmeans.program ~rows ~cols ~k ())
      ~inputs:(Dmll_apps.Kmeans.inputs ml ~centroids:cents)
      ~reference:(fun () ->
        ignore
          (Dmll_apps.Kmeans.handopt ~data:ml.Dmll_data.Gaussian.data ~rows ~cols ~k
             ~centroids:cents));
    bench_app ~name:"Logistic Regression" ~runs
      ~dataset:(Printf.sprintf "%dk x %d" (rows / 1000) cols)
      ~per_iter:true
      ~program:(Dmll_apps.Logreg.program ~rows ~cols ~alpha:0.01 ())
      ~inputs:(Dmll_apps.Logreg.inputs ml ~theta:Datasets.theta0)
      ~reference:(fun () ->
        ignore
          (Dmll_apps.Logreg.handopt ~data:ml.Dmll_data.Gaussian.data ~labels ~rows ~cols
             ~alpha:0.01 ~theta:Datasets.theta0));
    (let ranks = Dmll_apps.Pagerank.initial_ranks pr in
     let out = Array.make pr.Dmll_graph.Csr.nv 0.0 in
     bench_app ~name:"PageRank" ~runs
       ~dataset:
         (Printf.sprintf "R-MAT %dk v / %dk e" (pr.Dmll_graph.Csr.nv / 1000)
            (pr.Dmll_graph.Csr.ne / 1000))
       ~per_iter:true
       ~program:(Dmll_apps.Pagerank.program_pull ~nv:pr.Dmll_graph.Csr.nv ())
       ~inputs:(Dmll_apps.Pagerank.inputs pr ~ranks)
       ~reference:(fun () -> Dmll_apps.Pagerank.handopt_pull pr ranks out));
    bench_app ~name:"Triangle Counting" ~runs
      ~dataset:
        (Printf.sprintf "R-MAT %dk v / %dk e" (tri.Dmll_graph.Csr.nv / 1000)
           (tri.Dmll_graph.Csr.ne / 1000))
      ~per_iter:false
      ~program:(Dmll_apps.Tricount.program ())
      ~inputs:(Dmll_apps.Tricount.inputs tri)
      ~reference:(fun () -> ignore (Dmll_apps.Tricount.handopt tri));
  ]

let run ?(runs = 3) () =
  let tbl =
    T.create
      ~title:
        "Table 2: sequential DMLL (generated code via ocamlopt / closure \
         backend) vs hand-optimized OCaml"
      ~header:
        [ "Benchmark"; "Data set"; "Optimizations applied"; "DMLL native";
          "DMLL closure"; "HandOpt"; "Delta(native)" ]
      ~aligns:[ T.Left; T.Left; T.Left; T.Right; T.Right; T.Right; T.Right ]
      ()
  in
  let rs = rows ~runs () in
  List.iter
    (fun r ->
      let suffix = if r.per_iter then "/iter" else "" in
      T.add_row tbl
        [ r.name; r.dataset; opt_summary r.opts;
          (match r.native_s with
          | Some s -> T.fmt_time s ^ suffix
          | None -> "n/a");
          T.fmt_time r.closure_s ^ suffix;
          T.fmt_time r.ref_s ^ suffix;
          (match r.native_s with
          | Some s -> T.fmt_pct ((s -. r.ref_s) /. r.ref_s *. 100.0)
          | None -> "-");
        ])
    rs;
  T.print tbl;
  rs
