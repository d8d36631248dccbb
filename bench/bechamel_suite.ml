(* Bechamel micro-benchmarks: one Test.make per paper table/figure family,
   measuring the REAL kernels behind each experiment with OLS regression
   over monotonic-clock and minor-allocation samples (ns/run and
   words/run).  The DMLL side here is the IN-PROCESS closure backend
   (bechamel needs re-runnable thunks); the native-backend comparison
   lives in Table 2.  Enabled with `bench/main.exe --bechamel`. *)

open Bechamel
open Toolkit

module V = Dmll_interp.Value

let compiled program =
  Dmll_backend.Closure.compile
    (Dmll.compile_with Dmll.Config.default program).Dmll.final

let tests () =
  (* small instances: bechamel wants many samples per test *)
  let rows = 2_000 and cols = 16 and k = 8 in
  let ml = Dmll_data.Gaussian.generate ~rows ~cols ~classes:k () in
  let cents = Dmll_data.Gaussian.random_centroids ~k ml in
  let labels = Dmll_data.Gaussian.binary_labels ml in
  let q1 = Dmll_data.Tpch.generate ~rows:5_000 () in
  let pr = Dmll_graph.Csr.of_edges (Dmll_data.Rmat.generate ~scale:10 ~edge_factor:8 ()) in
  let ranks = Dmll_apps.Pagerank.initial_ranks pr in
  let pr_out = Array.make pr.Dmll_graph.Csr.nv 0.0 in

  let km = compiled (Dmll_apps.Kmeans.program ~rows ~cols ~k ()) in
  let km_inputs = Dmll_apps.Kmeans.inputs ml ~centroids:cents in
  let lr = compiled (Dmll_apps.Logreg.program ~rows ~cols ~alpha:0.01 ()) in
  let lr_inputs = Dmll_apps.Logreg.inputs ml ~theta:(Array.make cols 0.05) in
  let q1c = compiled (Dmll_apps.Tpch_q1.program ()) in
  let q1_inputs = Dmll_apps.Tpch_q1.soa_inputs q1 in
  let prc = compiled (Dmll_apps.Pagerank.program_pull ~nv:pr.Dmll_graph.Csr.nv ()) in
  let pr_inputs = Dmll_apps.Pagerank.inputs pr ~ranks in

  [ (* Table 2 family: DMLL vs hand-optimized pairs *)
    Test.make ~name:"table2/kmeans/dmll-closure"
      (Staged.stage (fun () -> km.Dmll_backend.Closure.run ~inputs:km_inputs ()));
    Test.make ~name:"table2/kmeans/handopt"
      (Staged.stage (fun () ->
           Dmll_apps.Kmeans.handopt ~data:ml.Dmll_data.Gaussian.data ~rows ~cols ~k
             ~centroids:cents));
    Test.make ~name:"table2/logreg/dmll-closure"
      (Staged.stage (fun () -> lr.Dmll_backend.Closure.run ~inputs:lr_inputs ()));
    Test.make ~name:"table2/logreg/handopt"
      (Staged.stage (fun () ->
           Dmll_apps.Logreg.handopt ~data:ml.Dmll_data.Gaussian.data ~labels ~rows ~cols
             ~alpha:0.01 ~theta:(Array.make cols 0.05)));
    Test.make ~name:"table2/q1/dmll-closure"
      (Staged.stage (fun () -> q1c.Dmll_backend.Closure.run ~inputs:q1_inputs ()));
    Test.make ~name:"table2/q1/handopt"
      (Staged.stage (fun () -> Dmll_apps.Tpch_q1.handopt q1));
    Test.make ~name:"table2/pagerank/dmll-closure"
      (Staged.stage (fun () -> prc.Dmll_backend.Closure.run ~inputs:pr_inputs ()));
    Test.make ~name:"table2/pagerank/handopt"
      (Staged.stage (fun () -> Dmll_apps.Pagerank.handopt_pull pr ranks pr_out));
    (* Figure 6 family: compiler passes themselves (the cost of the
       optimizer, not just the optimized code) *)
    Test.make ~name:"fig6/compile/kmeans"
      (Staged.stage (fun () ->
           Dmll.compile_with Dmll.Config.default
             (Dmll_apps.Kmeans.program ~rows ~cols ~k ())));
    Test.make ~name:"fig6/compile/q1"
      (Staged.stage (fun () ->
           Dmll.compile_with Dmll.Config.default (Dmll_apps.Tpch_q1.program ())));
  ]

let run () =
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None () in
  let instances = Instance.[ monotonic_clock; minor_allocated ] in
  let raw =
    Benchmark.all cfg instances
      (Test.make_grouped ~name:"dmll" ~fmt:"%s %s" (tests ()))
  in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let times = Analyze.all ols Instance.monotonic_clock raw in
  let words = Analyze.all ols Instance.minor_allocated raw in
  let estimate results name =
    match Option.map Analyze.OLS.estimates (Hashtbl.find_opt results name) with
    | Some (Some (e :: _)) -> e
    | _ -> nan
  in
  let tbl =
    Dmll_util.Table.create
      ~title:"Bechamel micro-benchmarks (monotonic clock + minor words, OLS)"
      ~header:[ "Benchmark"; "ns/run"; "words/run"; "R^2 (time)" ]
      ~aligns:Dmll_util.Table.[ Left; Right; Right; Right ]
      ()
  in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) times [] in
  List.iter
    (fun (name, ols) ->
      let r2 = match Analyze.OLS.r_square ols with Some r -> r | None -> nan in
      Dmll_util.Table.add_row tbl
        [ name;
          Printf.sprintf "%.0f" (estimate times name);
          Printf.sprintf "%.0f" (estimate words name);
          Printf.sprintf "%.4f" r2;
        ])
    (List.sort compare rows);
  Dmll_util.Table.print tbl
