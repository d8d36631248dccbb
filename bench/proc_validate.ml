(* The process-backed executor against the simulator (DESIGN.md §14):
   for kmeans, pagerank, and TPC-H Q1 at 1/2/4 workers, run the cluster
   simulator (modeled seconds at the same node count) and the
   forked-worker executor, checking the process value against the
   sequential reference (exit 1 on a mismatch).

   Emits one JSON line per (app, workers) — the content of
   BENCH_proc.json:

     {"app":"kmeans","workers":2,"simulated_s":...,"value_ok":true}

   It records no wall-clock: one sample of a forked run is noise, and
   bench/perf measures the executor (its kmeans-proc workload). *)

module R = Dmll_runtime
module M = Dmll_machine.Machine
module V = Dmll_interp.Value

let worker_counts = [ 1; 2; 4 ]

let apps () =
  let q1 = Lazy.force Datasets.q1_table in
  let ml = Lazy.force Datasets.ml_small in
  let cents = Lazy.force Datasets.centroids_small in
  let pr = Lazy.force Datasets.pr_graph in
  [ ( "kmeans",
      Dmll_apps.Kmeans.program ~rows:Datasets.ml_rows_small ~cols:Datasets.ml_cols
        ~k:Datasets.kmeans_k (),
      Dmll_apps.Kmeans.inputs ml ~centroids:cents );
    ( "pagerank",
      Dmll_apps.Pagerank.program_pull ~nv:pr.Dmll_graph.Csr.nv (),
      Dmll_apps.Pagerank.inputs pr ~ranks:(Dmll_apps.Pagerank.initial_ranks pr) );
    ( "tpch_q1",
      Dmll_apps.Tpch_q1.program (),
      Dmll_apps.Tpch_q1.aos_inputs q1 @ Dmll_apps.Tpch_q1.soa_inputs q1 );
  ]

let run () =
  Printf.printf
    "Simulated cluster seconds, and the real forked-worker value\n\
     (same programs, same inputs; value checked against the sequential\n\
     \ reference each time — exact, or 1e-6 for reassociated float \
     merges).\n\n";
  List.iter
    (fun (name, program, inputs) ->
      let c = Dmll.compile_with Dmll.Config.default program in
      let reference = (Dmll.execute Dmll.Config.default c ~inputs).Dmll.value in
      List.iter
        (fun w ->
          let sim =
            R.Sim_cluster.run
              ~config:
                { R.Sim_cluster.default_config with
                  cluster = M.with_nodes w M.ec2_cluster;
                }
              ~inputs c.Dmll.final
          in
          let proc =
            R.Proc_cluster.run
              ~config:{ R.Proc_cluster.default_config with workers = w }
              ~inputs c.Dmll.final
          in
          let ok =
            V.equal proc.R.Proc_cluster.value reference
            || V.approx_equal ~eps:1e-6 reference proc.R.Proc_cluster.value
          in
          Printf.printf
            "{\"app\":%S,\"workers\":%d,\"simulated_s\":%.6g,\"value_ok\":%b}\n%!"
            name w sim.R.Sim_common.seconds ok;
          if not ok then begin
            Printf.eprintf "proc_validate: %s@%d workers: value mismatch\n" name
              w;
            exit 1
          end)
        worker_counts)
    (apps ())
