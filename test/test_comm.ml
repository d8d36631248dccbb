(* Tests of the static communication-volume analysis against the cluster
   simulator (DESIGN.md §10): with validation armed — as under
   DMLL_DEBUG=1 — every application must satisfy the contract
   measured <= slack * predicted + floor for every loop and phase, at
   several cluster sizes, and the measured byte counters themselves must
   behave (remote reads charge exactly the bytes they move). *)

open Dmll_ir
open Exp
module R = Dmll_runtime
module M = Dmll_machine.Machine
module V = Dmll_interp.Value
module Comm = Dmll_analysis.Comm
module Partition = Dmll_analysis.Partition
module Diag = Dmll_analysis.Diag

let check = Alcotest.check
let tbool = Alcotest.bool

(* ---------------- shared small inputs, one entry per app ------------- *)

let km_data = Dmll_data.Gaussian.generate ~rows:60 ~cols:6 ~classes:3 ()
let km_centroids = Dmll_data.Gaussian.random_centroids ~k:3 km_data
let lr_data = Dmll_data.Gaussian.generate ~rows:50 ~cols:5 ~classes:2 ()
let q1_table = Dmll_data.Tpch.generate ~rows:500 ()
let gene_reads = Dmll_data.Genes.generate ~reads:500 ~barcodes:20 ()

let pr_graph =
  Dmll_graph.Csr.of_edges (Dmll_data.Rmat.generate ~scale:6 ~edge_factor:4 ())

let tri_graph =
  Dmll_graph.Csr.of_edges
    (Dmll_data.Rmat.symmetrize (Dmll_data.Rmat.generate ~scale:5 ~edge_factor:4 ()))

let knn_train = Dmll_data.Gaussian.generate ~seed:1 ~rows:40 ~cols:4 ~classes:3 ()
let knn_test = Dmll_data.Gaussian.generate ~seed:2 ~rows:12 ~cols:4 ~classes:3 ()
let nb_data = Dmll_data.Gaussian.generate ~rows:50 ~cols:4 ~classes:3 ()
let gibbs_graph = Dmll_data.Factor_graph.generate ~vars:50 ~factors:150 ()
let gibbs_state = Dmll_data.Factor_graph.initial_state gibbs_graph
let gibbs_rand = Dmll_data.Factor_graph.sweep_randoms ~sweeps:2 gibbs_graph

let apps : (string * exp * (string * V.t) list) list =
  let open Dmll_apps in
  [ ( "kmeans",
      Kmeans.program ~rows:60 ~cols:6 ~k:3 (),
      Kmeans.inputs km_data ~centroids:km_centroids );
    ( "logreg",
      Logreg.program ~rows:50 ~cols:5 ~alpha:0.01 (),
      Logreg.inputs lr_data ~theta:(Array.make 5 0.1) );
    ("gda", Gda.program ~rows:50 ~cols:5 (), Gda.inputs lr_data);
    ( "tpch_q1",
      Tpch_q1.program (),
      Tpch_q1.aos_inputs q1_table @ Tpch_q1.soa_inputs q1_table );
    ( "gene",
      Gene.program (),
      Gene.aos_inputs gene_reads @ Gene.soa_inputs gene_reads );
    ( "pagerank_pull",
      Pagerank.program_pull ~nv:pr_graph.Dmll_graph.Csr.nv (),
      Pagerank.inputs pr_graph ~ranks:(Pagerank.initial_ranks pr_graph) );
    ( "pagerank_push",
      Pagerank.program_push ~nv:pr_graph.Dmll_graph.Csr.nv (),
      Pagerank.inputs pr_graph ~ranks:(Pagerank.initial_ranks pr_graph) );
    ("tricount", Tricount.program (), Tricount.inputs tri_graph);
    ( "knn",
      Knn.program ~train_rows:40 ~test_rows:12 ~cols:4 (),
      Knn.inputs ~train:knn_train ~test:knn_test );
    ( "naive_bayes",
      Naive_bayes.program ~rows:50 ~cols:4 (),
      Naive_bayes.inputs nb_data );
    ( "gibbs",
      Gibbs.program ~nvars:50 ~replicas:2 (),
      Gibbs.inputs gibbs_graph ~state:gibbs_state ~rand:gibbs_rand );
    ( "ridge",
      Ridge.program ~rows:50 ~cols:5 ~alpha:0.001 ~lambda:0.1 (),
      Ridge.inputs lr_data ~theta:(Array.make 5 0.2) );
  ]

let node_counts = [ 2; 5 ]

let config_for n =
  { R.Sim_cluster.default_config with cluster = M.with_nodes n M.ec2_cluster }

let with_validation f =
  let saved = !Comm.validate_enabled in
  Comm.validate_enabled := true;
  Fun.protect ~finally:(fun () -> Comm.validate_enabled := saved) f

(* ---------------- every app upholds the contract --------------------- *)

let test_apps_validated () =
  with_validation (fun () ->
      List.iter
        (fun (name, program, inputs) ->
          let c = Dmll.compile_with Dmll.Config.default program in
          let reference =
            (R.Sim_cluster.run ~config:(config_for 1) ~inputs c.Dmll.final)
              .R.Sim_common.value
          in
          List.iter
            (fun n ->
              match R.Sim_cluster.run ~config:(config_for n) ~inputs c.Dmll.final with
              | r ->
                  check tbool
                    (Printf.sprintf "%s@%d nodes: value unchanged" name n)
                    true
                    (V.equal r.R.Sim_common.value reference)
              | exception Diag.Failed { stage; diags } ->
                  Alcotest.failf "%s@%d nodes: comm-plan overrun at %s: %s" name
                    n stage
                    (String.concat "; " (List.map Diag.to_string diags)))
            node_counts)
        apps)

(* ---------------- explicit per-phase bound on one app ---------------- *)

let traffic_total (r : R.Sim_common.result) (phase : string) : float =
  let suffix = "/" ^ phase in
  let slen = String.length suffix in
  List.fold_left
    (fun acc (nm, b) ->
      let nlen = String.length nm in
      if nlen >= slen && String.sub nm (nlen - slen) slen = suffix then acc +. b
      else acc)
    0.0 r.R.Sim_common.traffic

let test_kmeans_phases_bounded () =
  let _, program, inputs = List.find (fun (n, _, _) -> n = "kmeans") apps in
  let c = Dmll.compile_with Dmll.Config.default program in
  let layouts =
    (Partition.analyze ~transforms:[] ~reoptimize:Fun.id c.Dmll.final)
      .Partition.layouts
  in
  let layout_of t = Partition.layout_of t layouts in
  let input_lens =
    List.filter_map
      (fun (n, v) -> match v with V.Varr _ -> Some (n, V.length v) | _ -> None)
      inputs
  in
  let resolver = Comm.static_resolver ~input_lens c.Dmll.final in
  let plans = Comm.of_program ~layout_of c.Dmll.final in
  let n = 4 in
  let r = R.Sim_cluster.run ~config:(config_for n) ~inputs c.Dmll.final in
  check tbool "traffic was recorded" true (r.R.Sim_common.traffic <> []);
  List.iter
    (fun (pname, p) ->
      let predicted =
        List.fold_left
          (fun acc plan -> acc +. Comm.phase_bytes ~nodes:n ~layout_of resolver plan p)
          0.0 plans
      in
      let measured = traffic_total r pname in
      check tbool
        (Printf.sprintf "%s: measured %.0fB within %.2fx of predicted %.0fB"
           pname measured Comm.slack predicted)
        true
        (measured <= (Comm.slack *. predicted) +. Comm.slack_floor_bytes))
    [ ("broadcast", `Broadcast); ("replicate", `Replicate); ("gather", `Gather) ]

(* ---------------- the contract itself -------------------------------- *)

let test_contract_trips_on_overrun () =
  (* within slack: accepted *)
  Comm.check_measured ~site:"t" ~phase:"replicate" ~predicted:1000.0
    ~measured:1400.0;
  (* zero payload under the floor: accepted *)
  Comm.check_measured ~site:"t" ~phase:"gather" ~predicted:0.0 ~measured:64.0;
  (* beyond slack + floor: C-COMM-OVERRUN *)
  match
    Comm.check_measured ~site:"t" ~phase:"replicate" ~predicted:1000.0
      ~measured:((Comm.slack *. 1000.0) +. Comm.slack_floor_bytes +. 1.0)
  with
  | () -> Alcotest.fail "expected C-COMM-OVERRUN"
  | exception Diag.Failed { diags; _ } ->
      check tbool "rule id is C-COMM-OVERRUN" true
        (Diag.has_rule diags "C-COMM-OVERRUN")

(* ---------------- the measured side: Dist_array byte counter --------- *)

let test_dist_array_counts_bytes () =
  let tfloat = Alcotest.float 1e-9 in
  let dir = R.Dist_array.make_directory ~n:100 ~nodes:4 ~sockets_per_node:1 in
  let t =
    R.Dist_array.scatter dir (V.of_float_array (Array.init 100 float_of_int))
  in
  check tfloat "fresh array moved nothing" 0.0 (R.Dist_array.remote_read_bytes t);
  (* a local read moves nothing *)
  ignore (R.Dist_array.read t ~from_loc:(R.Dist_array.owner dir 0) 0);
  check tfloat "local read is free" 0.0 (R.Dist_array.remote_read_bytes t);
  (* each remote read charges exactly the element's wire size *)
  ignore (R.Dist_array.read t ~from_loc:0 99);
  check tfloat "one remote float" 8.0 (R.Dist_array.remote_read_bytes t);
  ignore (R.Dist_array.read t ~from_loc:0 98);
  check tfloat "two remote floats" 16.0 (R.Dist_array.remote_read_bytes t)

(* ---------------- counter hygiene between simulator runs ------------- *)

(* PR-5: Dist_array charges remote-read bytes to a per-run
   Obs.Metrics.t handle instead of a process-wide counter, so the
   "total/remote-read" traffic row of one Sim_cluster.run can never see
   another run's bytes — no reset hack required.  Manual Dist_array
   activity between runs lands on its own handle and must not leak. *)
let test_per_run_metrics_isolation () =
  let program =
    let open Builder in
    let input = Input ("xs", Types.Arr Types.Float, Partitioned) in
    let i = Sym.fresh ~name:"i" Types.Int in
    Loop
      { size = Len input;
        idx = i;
        gens =
          [ Collect { cond = None; value = Read (input, Var i) *. float_ 2.0 } ];
      }
  in
  let inputs =
    [ ("xs", V.of_float_array (Array.init 96 float_of_int)) ]
  in
  let run () = R.Sim_cluster.run ~config:(config_for 4) ~inputs program in
  let r1 = run () in
  (* manual remote reads between runs charge their own metrics handle *)
  let side = Dmll_obs.Metrics.create () in
  let dir = R.Dist_array.make_directory ~n:100 ~nodes:4 ~sockets_per_node:1 in
  let t =
    R.Dist_array.scatter dir ~metrics:side
      (V.of_float_array (Array.init 100 float_of_int))
  in
  ignore (R.Dist_array.read t ~from_loc:0 99);
  check tbool "manual read bumped its own handle" true
    (Dmll_obs.Metrics.bytes side "remote_read_bytes" > 0.0);
  let r2 = run () in
  check tbool "value identical across consecutive runs" true
    (V.equal r1.R.Sim_common.value r2.R.Sim_common.value);
  check
    Alcotest.(list (pair string (float 1e-9)))
    "traffic identical across consecutive runs (no inherited bytes)"
    r1.R.Sim_common.traffic r2.R.Sim_common.traffic;
  (* the two runs carry independent ledgers with identical charges *)
  let tfloat = Alcotest.float 1e-9 in
  check tfloat "per-run ledgers agree"
    (Dmll_obs.Metrics.bytes r1.R.Sim_common.metrics "remote_read_bytes")
    (Dmll_obs.Metrics.bytes r2.R.Sim_common.metrics "remote_read_bytes")

(* ---------------- --explain comm --json golden schema ----------------- *)

(* The JSON reader lives in test/support/json_check.ml, shared with the
   --explain mem golden test in test_mem.ml. *)
open Dmll_testgen.Json_check

let parse_json = parse

let tkeys = Alcotest.(list string)

let test_explain_json_schema () =
  (* reproduce dmllc --explain comm kmeans_tiny --json --nodes 4
     in-process *)
  let machine = M.with_nodes 4 M.ec2_cluster in
  let input_lens = [ ("matrix", 256); ("clusters", 16) ] in
  let source = Dmll_apps.Kmeans.program ~rows:64 ~cols:4 ~k:4 () in
  let generic =
    (Dmll_opt.Pipeline.optimize_with ~extra_rules:[] source)
      .Dmll_opt.Pipeline.program
  in
  let report =
    Partition.analyze ~transforms:Dmll_opt.Rules_nested.cpu_rules ~machine
      ~input_lens generic
  in
  let layout_of t = Partition.layout_of t report.Partition.layouts in
  let summary =
    Comm.summarize ~input_lens ~machine ~layout_of report.Partition.program
  in
  let json =
    Partition.explain_to_json ~app:"kmeans_tiny"
      ~decisions:report.Partition.decisions summary
  in
  let doc = parse_json json in
  (* top level: exactly app/decisions/comm, in that order *)
  check tkeys "top-level keys" [ "app"; "decisions"; "comm" ] (keys_of doc);
  check Alcotest.string "app name" "kmeans_tiny" (str (field doc "app"));
  (* decisions: the kmeans_tiny sizes are chosen so the cost-guided search
     keeps the program over the conditional-reduce rewrite *)
  (match arr (field doc "decisions") with
  | [ d ] ->
      check tkeys "decision keys"
        [ "iteration"; "chosen"; "provenance"; "candidates" ]
        (keys_of d);
      check Alcotest.string "provenance" "greedy" (str (field d "provenance"));
      check Alcotest.string "chosen rule" "keep" (str (field d "chosen"));
      List.iter
        (fun c ->
          check tkeys "candidate keys" [ "rule"; "bytes" ] (keys_of c);
          ignore (num (field c "bytes")))
        (arr (field d "candidates"))
  | ds -> Alcotest.failf "expected exactly one decision, got %d" (List.length ds));
  (* comm summary *)
  let comm = field doc "comm" in
  check tkeys "comm keys"
    [ "nodes"; "loops"; "per_collection"; "partials_bytes"; "total_bytes";
      "est_seconds" ]
    (keys_of comm);
  check (Alcotest.float 0.0) "nodes" 4.0 (num (field comm "nodes"));
  let loops = arr (field comm "loops") in
  check tbool "kmeans_tiny has two outer loops" true (List.length loops = 2);
  List.iter
    (fun l ->
      check tkeys "loop keys" [ "loop"; "distributed"; "terms" ] (keys_of l);
      (match field l "distributed" with
      | Jbool _ -> ()
      | _ -> Alcotest.fail "distributed must be a bool");
      List.iter
        (fun t ->
          check tkeys "term keys"
            [ "kind"; "target"; "formula"; "bytes"; "note" ]
            (keys_of t);
          check tbool "term kind is known" true
            (List.mem (str (field t "kind"))
               [ "broadcast"; "gather"; "shuffle"; "remote-read"; "halo" ]);
          ignore (num (field t "bytes")))
        (arr (field l "terms")))
    loops;
  List.iter
    (fun pc ->
      check tkeys "per_collection keys" [ "collection"; "bytes" ] (keys_of pc))
    (arr (field comm "per_collection"));
  (* sym-independent pinned values: total volume and the matrix/clusters
     broadcast bytes are functions of the app sizes only *)
  check (Alcotest.float 0.0) "partials_bytes" 0.0
    (num (field comm "partials_bytes"));
  check (Alcotest.float 0.0) "total_bytes" 2688.0
    (num (field comm "total_bytes"));
  let coll_bytes name =
    List.fold_left
      (fun acc pc ->
        if str (field pc "collection") = name then num (field pc "bytes")
        else acc)
      Float.nan
      (arr (field comm "per_collection"))
  in
  check (Alcotest.float 0.0) "matrix broadcast bytes" 2048.0
    (coll_bytes "matrix");
  check (Alcotest.float 0.0) "clusters broadcast bytes" 128.0
    (coll_bytes "clusters")

let () =
  Alcotest.run "comm"
    [ ( "contract",
        [ Alcotest.test_case "slack and overrun" `Quick test_contract_trips_on_overrun;
          Alcotest.test_case "dist-array byte counter" `Quick
            test_dist_array_counts_bytes;
        ] );
      ( "cluster",
        [ Alcotest.test_case "kmeans per-phase bound" `Quick
            test_kmeans_phases_bounded;
          Alcotest.test_case "per-run metrics isolation" `Quick
            test_per_run_metrics_isolation;
          Alcotest.test_case "all apps validated at 2 and 5 nodes" `Slow
            test_apps_validated;
        ] );
      ( "explain-json",
        [ Alcotest.test_case "golden schema for kmeans_tiny" `Quick
            test_explain_json_schema;
        ] );
    ]
