(* Recovery of the TCP executor vs network-fault rate (DESIGN.md §14.2): kmeans, pagerank, and TPC-H Q1 on TCP-attached
   workers at 0%, 1%, and 5% per-frame fault rates (each rate applied
   simultaneously to crash, partition, sever, and corrupt probabilities,
   so "5%" is a genuinely hostile network).

   Every faulted run must be bit-identical to the healthy TCP run — not
   approximately equal — or the harness exits 1: recovery is allowed to
   cost wall-clock, never correctness.  At nonzero rates the sweep must
   also deliver at least one link fault, so a silently disarmed injector
   cannot turn the gate into a no-op.

   Emits one JSON row per (app, rate) and writes the whole table to
   BENCH_net.json — the faults each sweep delivered and what recovery
   did about them:

     {"app":"kmeans","workers":3,"fault_rate":0.05,"link_faults":9,
      "disconnects":2,"reconnects":1,"replans":1,"value_ok":true}

   It records no wall-clock: one sample of a faulted run is noise (one
   such sample once read a faulted TPC-H Q1 at 0.55x its healthy time),
   and bench/perf measures the executor (its q1-net workload). *)

module R = Dmll_runtime
module M = Dmll_machine.Machine
module V = Dmll_interp.Value

let workers = 3
let rates = [ 0.0; 0.01; 0.05 ]

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

let spec ~rate ~seed =
  { M.default_faults with
    M.fault_seed = seed;
    crash_prob = rate;
    crash_transient_frac = 1.0;
    straggler_prob = 0.0;
    partition_prob = rate;
    sever_prob = rate;
    corrupt_prob = rate;
    link_delay_prob = rate;
    link_delay_ms = 0.3;
    heartbeat_ms = 20.0;
    max_retries = 2;
    backoff_us = 50.0;
  }

let config ?faults () =
  { R.Net_cluster.default_config with
    R.Net_cluster.workers;
    faults;
    task_deadline_s = 0.6;
    heartbeat_s = 0.04;
    reconnect_grace_s = 0.1;
    max_respawns = 64;
  }

let run () =
  Printf.printf
    "TCP-executor recovery vs network-fault rate\n\
     (crash + partition + sever + corrupt, each at the stated per-frame\n\
     \ rate; every faulted value checked bit-identical to the healthy\n\
     \ TCP run, the healthy run against the sequential reference).\n\n";
  let rows = ref [] in
  List.iteri
    (fun i (name, program, inputs) ->
      let c = Dmll.compile_with Dmll.Config.default program in
      let reference = (Dmll.execute Dmll.Config.default c ~inputs).Dmll.value in
      let healthy =
        R.Net_cluster.run ~config:(config ()) ~inputs c.Dmll.final
      in
      let healthy_ok =
        V.equal healthy.R.Net_cluster.value reference
        || V.approx_equal ~eps:1e-6 reference healthy.R.Net_cluster.value
      in
      if not healthy_ok then begin
        Printf.eprintf "net_validate: %s: healthy value mismatch\n" name;
        exit 1
      end;
      List.iter
        (fun rate ->
          let r, link_faults =
            if rate = 0.0 then (healthy, 0)
            else begin
              let injector =
                R.Fault.create (spec ~rate ~seed:(7000 + (100 * i)))
              in
              let r =
                R.Net_cluster.run
                  ~config:(config ~faults:injector ())
                  ~inputs c.Dmll.final
              in
              (r, R.Fault.link_fault_count injector)
            end
          in
          let ok = V.equal r.R.Net_cluster.value healthy.R.Net_cluster.value in
          let s = r.R.Net_cluster.stats in
          let row =
            Printf.sprintf
              "{\"app\":%S,\"workers\":%d,\"fault_rate\":%g,\
               \"link_faults\":%d,\"disconnects\":%d,\"reconnects\":%d,\
               \"replans\":%d,\"value_ok\":%b}"
              name workers rate link_faults s.R.Net_cluster.disconnects
              s.R.Net_cluster.reconnects s.R.Net_cluster.replans ok
          in
          Printf.printf "%s\n%!" row;
          rows := row :: !rows;
          if not ok then begin
            Printf.eprintf
              "net_validate: %s at rate %g: faulted value differs from the \
               healthy run\n"
              name rate;
            exit 1
          end;
          if rate > 0.0 && link_faults = 0 then
            Printf.eprintf
              "net_validate: note: %s at rate %g delivered no link faults\n"
              name rate)
        rates)
    (apps ());
  let json =
    "[\n  " ^ String.concat ",\n  " (List.rev !rows) ^ "\n]\n"
  in
  Out_channel.with_open_text "BENCH_net.json" (fun oc ->
      Out_channel.output_string oc json);
  Printf.printf "\nwrote BENCH_net.json\n%!"
