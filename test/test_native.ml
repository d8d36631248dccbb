(* Tests of the native backend (generated OCaml compiled by ocamlopt and
   dynlinked in process): every application's kernel must compute exactly
   what the reference interpreter computes.  Skipped when the JIT is
   unavailable. *)

open Dmll_interp
module Backend = Dmll_backend

let check = Alcotest.check
let tbool = Alcotest.bool

let available = Lazy.force Backend.Native.Jit.available

let native_matches ?(eps = 1e-9) name program inputs =
  if not available then ()
  else begin
    let opt = (Dmll.compile_with Dmll.Config.default program).Dmll.final in
    let expected = Interp.run ~inputs program in
    let r = Backend.Native.Jit.run ~inputs opt in
    check tbool
      (name ^ ": native = interpreter")
      true
      (Value.approx_equal ~eps expected r.Backend.Native.value);
    check tbool (name ^ ": positive time") true (r.Backend.Native.seconds >= 0.0)
  end

let test_toolchain () =
  if not available then
    Printf.printf "native JIT unavailable; native tests skipped\n"

let rows = 200
let cols = 6
let k = 3

let ml = Dmll_data.Gaussian.generate ~rows ~cols ~classes:k ()
let cents = Dmll_data.Gaussian.random_centroids ~k ml

let test_kmeans () =
  native_matches "kmeans"
    (Dmll_apps.Kmeans.program ~rows ~cols ~k ())
    (Dmll_apps.Kmeans.inputs ml ~centroids:cents)

let test_logreg () =
  native_matches "logreg"
    (Dmll_apps.Logreg.program ~rows ~cols ~alpha:0.01 ())
    (Dmll_apps.Logreg.inputs ml ~theta:(Array.make cols 0.1))

let test_gda () =
  native_matches "gda" (Dmll_apps.Gda.program ~rows ~cols ()) (Dmll_apps.Gda.inputs ml)

let test_q1 () =
  let t = Dmll_data.Tpch.generate ~rows:500 () in
  (* the optimized program consumes columns; the interpreter reference runs
     the source program on structs — compare through the optimized one *)
  let program = Dmll_apps.Tpch_q1.program () in
  if available then begin
    let opt = (Dmll.compile_with Dmll.Config.default program).Dmll.final in
    let inputs = Dmll_apps.Tpch_q1.soa_inputs t in
    let expected = Backend.Closure.run ~inputs opt in
    let r = Backend.Native.Jit.run ~inputs opt in
    check tbool "q1 native = closure" true
      (Value.approx_equal ~eps:1e-9 expected r.Backend.Native.value)
  end

let test_gene () =
  let g = Dmll_data.Genes.generate ~reads:500 ~barcodes:20 () in
  let program = Dmll_apps.Gene.program () in
  if available then begin
    let opt = (Dmll.compile_with Dmll.Config.default program).Dmll.final in
    let inputs = Dmll_apps.Gene.soa_inputs g in
    let expected = Backend.Closure.run ~inputs opt in
    let r = Backend.Native.Jit.run ~inputs opt in
    check tbool "gene native = closure" true
      (Value.approx_equal ~eps:1e-9 expected r.Backend.Native.value)
  end

let test_pagerank () =
  let g = Dmll_graph.Csr.of_edges (Dmll_data.Rmat.generate ~scale:6 ~edge_factor:4 ()) in
  native_matches "pagerank"
    (Dmll_apps.Pagerank.program_pull ~nv:g.Dmll_graph.Csr.nv ())
    (Dmll_apps.Pagerank.inputs g ~ranks:(Dmll_apps.Pagerank.initial_ranks g))

let test_tricount () =
  let g =
    Dmll_graph.Csr.of_edges
      (Dmll_data.Rmat.symmetrize (Dmll_data.Rmat.generate ~scale:5 ~edge_factor:3 ()))
  in
  native_matches "tricount" (Dmll_apps.Tricount.program ()) (Dmll_apps.Tricount.inputs g)

let test_gibbs () =
  let g = Dmll_data.Factor_graph.generate ~vars:40 ~factors:100 () in
  native_matches "gibbs"
    (Dmll_apps.Gibbs.program ~nvars:40 ~replicas:2 ())
    (Dmll_apps.Gibbs.inputs g
       ~state:(Dmll_data.Factor_graph.initial_state g)
       ~rand:(Dmll_data.Factor_graph.sweep_randoms ~sweeps:2 g))

let () =
  Alcotest.run "native"
    [ ( "apps",
        [ Alcotest.test_case "toolchain" `Quick test_toolchain;
          Alcotest.test_case "kmeans" `Slow test_kmeans;
          Alcotest.test_case "logreg" `Slow test_logreg;
          Alcotest.test_case "gda" `Slow test_gda;
          Alcotest.test_case "tpch-q1" `Slow test_q1;
          Alcotest.test_case "gene" `Slow test_gene;
          Alcotest.test_case "pagerank" `Slow test_pagerank;
          Alcotest.test_case "tricount" `Slow test_tricount;
          Alcotest.test_case "gibbs" `Slow test_gibbs;
        ] );
    ]
