(* Tests of the global plan-space analysis and its 0-1 ILP selector
   (DESIGN.md §15): the solver itself (optimality, propagation,
   determinism, node budget), the selector's guarantee that the chosen
   plan never moves more measured simulator traffic than the greedy
   plan — asserted on all twelve apps at 2 and 5 nodes with the
   C-COMM-OVERRUN machinery armed — the pinned kmeans 20-node decision,
   the W-FUSION-MISSED lint, a pinned-seed QCheck property over random
   partitioned programs, and the --explain plan --json golden schema. *)

open Dmll_ir
open Exp
open Builder
module R = Dmll_runtime
module M = Dmll_machine.Machine
module V = Dmll_interp.Value
module Interp = Dmll_interp.Interp
module Comm = Dmll_analysis.Comm
module Partition = Dmll_analysis.Partition
module Plan = Dmll_analysis.Plan
module Ilp = Dmll_analysis.Ilp
module Diag = Dmll_analysis.Diag

let check = Alcotest.check
let tbool = Alcotest.bool
let tfloat = Alcotest.float 1e-9

(* [open Builder] takes [+.] for exp construction; float slack
   comparisons go through this helper instead. *)
let le_eps a b = Stdlib.( <= ) a (Stdlib.( +. ) b 1e-6)

(* ---------------- the 0-1 ILP solver ---------------------------------- *)

let test_ilp_exactly_one () =
  let p =
    { Ilp.nvars = 3;
      cost = [| 5.0; 1.0; 3.0 |];
      constrs = [ Ilp.Exactly_one [ 0; 1; 2 ] ];
    }
  in
  match Ilp.solve p with
  | None -> Alcotest.fail "expected a solution"
  | Some s ->
      check tbool "cheapest member chosen" true s.Ilp.assignment.(1);
      check tbool "others off" false
        (s.Ilp.assignment.(0) || s.Ilp.assignment.(2));
      check tfloat "objective" 1.0 s.Ilp.objective;
      check tbool "no timeout" false s.Ilp.stats.Ilp.timed_out;
      check tbool "root bound <= optimum" true
        (le_eps s.Ilp.stats.Ilp.root_bound s.Ilp.objective)

let test_ilp_implication () =
  (* taking the profitable var forces its (costly) prerequisite *)
  let p =
    { Ilp.nvars = 2;
      cost = [| 1.0; -3.0 |];
      constrs = [ Ilp.Implies (1, 0) ];
    }
  in
  match Ilp.solve p with
  | None -> Alcotest.fail "expected a solution"
  | Some s ->
      check tbool "profitable var taken" true s.Ilp.assignment.(1);
      check tbool "prerequisite forced" true s.Ilp.assignment.(0);
      check tfloat "objective" (-2.0) s.Ilp.objective

let test_ilp_at_most () =
  (* three profitable vars, capacity one: exactly one survives *)
  let p =
    { Ilp.nvars = 3;
      cost = [| -1.0; -1.0; -1.0 |];
      constrs = [ Ilp.At_most ([ 0; 1; 2 ], 1) ];
    }
  in
  match Ilp.solve p with
  | None -> Alcotest.fail "expected a solution"
  | Some s ->
      let set =
        Array.to_list s.Ilp.assignment |> List.filter (fun b -> b)
      in
      check Alcotest.int "exactly one set" 1 (List.length set);
      check tfloat "objective" (-1.0) s.Ilp.objective

let test_ilp_infeasible () =
  let p =
    { Ilp.nvars = 2;
      cost = [| 1.0; 1.0 |];
      constrs = [ Ilp.Exactly_one [ 0; 1 ]; Ilp.At_most ([ 0; 1 ], 0) ];
    }
  in
  check tbool "infeasible problem has no solution" true (Ilp.solve p = None)

let test_ilp_deterministic () =
  (* ties break to the lower index, and re-solving is bit-identical *)
  let p =
    { Ilp.nvars = 4;
      cost = [| 1.0; 1.0; -0.5; -0.5 |];
      constrs =
        [ Ilp.Exactly_one [ 0; 1 ];
          Ilp.At_most ([ 2; 3 ], 1);
          Ilp.Implies (2, 0);
        ];
    }
  in
  match (Ilp.solve p, Ilp.solve p) with
  | Some a, Some b ->
      check
        Alcotest.(array bool)
        "same assignment on every run" a.Ilp.assignment b.Ilp.assignment;
      (* two optima tie at 0.5; the deterministic order (index-major,
         value 0 first for non-negative costs, strict incumbent
         improvement) always lands on {x1, x3} *)
      check
        Alcotest.(array bool)
        "the tie lands on the pinned assignment"
        [| false; true; false; true |]
        a.Ilp.assignment
  | _ -> Alcotest.fail "expected solutions"

let test_ilp_node_budget () =
  (* a chain of exactly-one groups needs more than 3 nodes to close *)
  let p =
    { Ilp.nvars = 12;
      cost = Array.make 12 1.0;
      constrs =
        [ Ilp.Exactly_one [ 0; 1; 2; 3 ];
          Ilp.Exactly_one [ 4; 5; 6; 7 ];
          Ilp.Exactly_one [ 8; 9; 10; 11 ];
        ];
    }
  in
  check tbool "starved budget yields no solution" true
    (Ilp.solve ~node_budget:3 p = None);
  match Ilp.solve p with
  | None -> Alcotest.fail "default budget must close this search"
  | Some s ->
      check tfloat "one per group" 3.0 s.Ilp.objective;
      check Alcotest.string "provenance" "ilp" (Ilp.provenance s)

(* ---------------- shared app table (mirrors test_comm) ----------------- *)

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

(* ---------------- ILP measured traffic <= greedy, twelve apps --------- *)

let traffic_sum (r : Dmll.run_result) : float =
  List.fold_left (fun acc (_, b) -> Stdlib.( +. ) acc b) 0.0 r.Dmll.traffic

let cfg_for selector n =
  Dmll.Config.(
    default
    |> with_target (Dmll.Cluster (config_for n))
    |> with_plan_selector selector)

let test_apps_ilp_no_worse_measured () =
  with_validation (fun () ->
      List.iter
        (fun (name, program, inputs) ->
          let reference =
            (Dmll.execute Dmll.Config.default
               (Dmll.compile_with Dmll.Config.default program)
               ~inputs)
              .Dmll.value
          in
          let value_ok v =
            V.equal v reference || V.approx_equal ~eps:1e-6 reference v
          in
          List.iter
            (fun n ->
              let leg selector =
                let cfg = cfg_for selector n in
                let c = Dmll.compile_with cfg program in
                let r = Dmll.execute cfg c ~inputs in
                (traffic_sum r, r.Dmll.value)
              in
              match (leg Dmll.Config.Ilp, leg Dmll.Config.Greedy) with
              | (m_ilp, v_ilp), (m_greedy, v_greedy) ->
                  check tbool
                    (Printf.sprintf "%s@%d nodes: ILP value ok" name n)
                    true (value_ok v_ilp);
                  check tbool
                    (Printf.sprintf "%s@%d nodes: greedy value ok" name n)
                    true (value_ok v_greedy);
                  check tbool
                    (Printf.sprintf
                       "%s@%d nodes: ILP measured %.0fB <= greedy %.0fB" name n
                       m_ilp m_greedy)
                    true (le_eps m_ilp m_greedy)
              | exception Diag.Failed { stage; diags } ->
                  Alcotest.failf "%s@%d nodes: comm-plan overrun at %s: %s" name
                    n stage
                    (String.concat "; " (List.map Diag.to_string diags)))
            node_counts)
        apps)

(* ---------------- the pinned kmeans 20-node decision ------------------- *)

let test_kmeans_20node_decision () =
  (* the dmllc registration sizes at the paper's 20-node EC2 cluster *)
  let machine = M.ec2_cluster in
  let input_lens = [ ("matrix", 16000); ("clusters", 128) ] in
  let source = Dmll_apps.Kmeans.program ~rows:1000 ~cols:16 ~k:8 () in
  let generic =
    (Dmll_opt.Pipeline.optimize_with ~extra_rules:[] ~horizontal_fusion:false
       source)
      .Dmll_opt.Pipeline.program
  in
  let r = Plan.analyze ~machine ~input_lens generic in
  match List.rev r.Plan.report.Partition.decisions with
  | [] -> Alcotest.fail "no plan decision recorded"
  | d :: _ -> (
      check tbool "solver provenance recorded" true
        (List.mem d.Partition.provenance
           [ "ilp"; "ilp-tie:greedy"; "ilp-fallback:greedy" ]);
      match List.assoc_opt "greedy" d.Partition.candidates with
      | None -> Alcotest.fail "greedy alternative missing from the decision"
      | Some greedy_bytes ->
          if String.equal d.Partition.chosen "greedy" then
            (* the pinned decision is kept *)
            ()
          else
            (* a new decision must be justified by strictly lower
               predicted volume, recorded right in the decision *)
            let chosen_bytes =
              match List.assoc_opt d.Partition.chosen d.Partition.candidates with
              | Some b -> b
              | None -> Alcotest.failf "chosen plan %S not among candidates"
                          d.Partition.chosen
            in
            check tbool
              (Printf.sprintf "new plan %.0fB strictly beats greedy %.0fB"
                 chosen_bytes greedy_bytes)
              true
              (chosen_bytes < greedy_bytes))

(* ---------------- W-FUSION-MISSED ------------------------------------- *)

(* Two adjacent distributed loops each broadcasting the same local
   collection: fusing them pays for that broadcast once instead of
   twice, so leaving them unfused must warn. *)
let unfused_pair () =
  let lc = Input ("lc", Types.Arr Types.Float, Local) in
  let pc = Input ("pc", Types.Arr Types.Float, Partitioned) in
  let a = Sym.fresh ~name:"a" (Types.Arr Types.Float) in
  let b = Sym.fresh ~name:"b" (Types.Arr Types.Float) in
  Let
    ( a,
      collect ~size:(Len pc) (fun i -> read pc i +. read lc i),
      Let
        ( b,
          collect ~size:(Len pc) (fun i -> read pc i *. read lc i),
          Tuple [ Var a; Var b ] ) )

let test_fusion_missed_lint () =
  let machine = M.with_nodes 4 M.ec2_cluster in
  let diags = Plan.fusion_missed_diags ~machine (unfused_pair ()) in
  check tbool "W-FUSION-MISSED raised on the unfused pair" true
    (Diag.has_rule diags "W-FUSION-MISSED");
  check tbool "it is a warning, not an error" false (Diag.has_errors diags);
  (* the standard pipeline fuses the pair; the warning disappears *)
  let fused =
    (Dmll_opt.Pipeline.optimize_with (unfused_pair ())).Dmll_opt.Pipeline.program
  in
  check tbool "no warning once fused" true
    (Plan.fusion_missed_diags ~machine fused = [])

(* ---------------- random programs: ILP <= greedy, exact values --------- *)

let prop_ilp_plan_no_worse =
  QCheck.Test.make ~count:100
    ~name:
      "ILP plan predicted <= greedy predicted; both bit-identical to the \
       interpreter on the simulated cluster"
    Dmll_testgen.Gen_ir.arbitrary_partitioned_program (fun e ->
      let inputs = [ ("xs", V.of_float_array (Array.init 96 float_of_int)) ] in
      match Interp.run ~inputs e with
      | exception Interp.Runtime_error _ -> QCheck.assume_fail ()
      | expected ->
          let machine = M.with_nodes 3 M.ec2_cluster in
          let r = Plan.analyze ~machine ~input_lens:[ ("xs", 96) ] e in
          let x = r.Plan.explain in
          if
            not
              (le_eps x.Plan.chosen.Plan.predicted_bytes
                 x.Plan.greedy.Plan.predicted_bytes)
          then
            QCheck.Test.fail_reportf
              "ILP plan predicted %.0fB > greedy %.0fB on:@.%s"
              x.Plan.chosen.Plan.predicted_bytes
              x.Plan.greedy.Plan.predicted_bytes (Pp.to_string e)
          else
            with_validation (fun () ->
                let run p =
                  (R.Sim_cluster.run ~config:(config_for 3) ~inputs p)
                    .R.Sim_common.value
                in
                V.equal expected (run x.Plan.chosen.Plan.program)
                && V.equal expected (run x.Plan.greedy.Plan.program)))

(* ---------------- --explain plan --json golden schema ------------------ *)

open Dmll_testgen.Json_check

let tkeys = Alcotest.(list string)

let choice_keys =
  [ "label"; "predicted_bytes"; "objective"; "rewrites"; "fusions"; "demotions" ]

let check_choice label c =
  check tkeys (label ^ " keys") choice_keys (keys_of c);
  ignore (num (field c "predicted_bytes"));
  ignore (num (field c "objective"));
  List.iter (fun r -> ignore (str r)) (arr (field c "rewrites"))

let test_explain_plan_json_schema () =
  (* reproduce dmllc --explain plan kmeans_tiny --json --nodes 4
     in-process *)
  let machine = M.with_nodes 4 M.ec2_cluster in
  let input_lens = [ ("matrix", 256); ("clusters", 16) ] in
  let source = Dmll_apps.Kmeans.program ~rows:64 ~cols:4 ~k:4 () in
  let generic =
    (Dmll_opt.Pipeline.optimize_with ~extra_rules:[] ~horizontal_fusion:false
       source)
      .Dmll_opt.Pipeline.program
  in
  let r =
    Plan.analyze ~transforms:Dmll_opt.Rules_nested.cpu_rules ~machine
      ~input_lens generic
  in
  let json = Plan.explain_to_json ~app:"kmeans_tiny" r.Plan.explain in
  let doc = parse json in
  check tkeys "top-level keys"
    [ "app"; "nodes"; "provenance"; "rounds"; "chosen"; "greedy"; "ilp";
      "solver"; "space" ]
    (keys_of doc);
  check Alcotest.string "app name" "kmeans_tiny" (str (field doc "app"));
  check (Alcotest.float 0.0) "nodes" 4.0 (num (field doc "nodes"));
  check tbool "provenance is a solver provenance" true
    (List.mem
       (str (field doc "provenance"))
       [ "ilp"; "ilp-tie:greedy"; "ilp-fallback:greedy" ]);
  ignore (num (field doc "rounds"));
  check_choice "chosen" (field doc "chosen");
  check_choice "greedy" (field doc "greedy");
  (match field doc "ilp" with
  | Jnull -> ()
  | ilp -> check_choice "ilp" ilp);
  (match field doc "solver" with
  | Jnull -> ()
  | solver ->
      check tkeys "solver keys"
        [ "vars"; "constraints"; "explored"; "node_budget"; "timed_out";
          "root_bound" ]
        (keys_of solver);
      (match field solver "timed_out" with
      | Jbool _ -> ()
      | _ -> Alcotest.fail "timed_out must be a bool"));
  let space = field doc "space" in
  check tkeys "space keys" [ "truncated"; "configs" ] (keys_of space);
  let configs = arr (field space "configs") in
  check tbool "the keep configuration is present" true (configs <> []);
  List.iter
    (fun cfg ->
      check tkeys "config keys"
        [ "label"; "rewrites"; "base_bytes"; "mem_peak_bytes"; "mem_penalty";
          "fusions"; "demotions" ]
        (keys_of cfg);
      ignore (num (field cfg "base_bytes"));
      List.iter
        (fun f ->
          check tkeys "fusion keys" [ "label"; "delta_bytes" ] (keys_of f))
        (arr (field cfg "fusions"));
      List.iter
        (fun d ->
          check tkeys "demotion keys" [ "label"; "delta_bytes" ] (keys_of d))
        (arr (field cfg "demotions")))
    configs;
  (* the selector's guard, visible in the document itself *)
  check tbool "chosen predicted <= greedy predicted" true
    (le_eps
       (num (field (field doc "chosen") "predicted_bytes"))
       (num (field (field doc "greedy") "predicted_bytes")))

(* ---------------------------------------------------------------------- *)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "plan"
    [ ( "ilp",
        [ Alcotest.test_case "exactly-one optimum" `Quick test_ilp_exactly_one;
          Alcotest.test_case "implication" `Quick test_ilp_implication;
          Alcotest.test_case "at-most capacity" `Quick test_ilp_at_most;
          Alcotest.test_case "infeasibility" `Quick test_ilp_infeasible;
          Alcotest.test_case "determinism" `Quick test_ilp_deterministic;
          Alcotest.test_case "node budget" `Quick test_ilp_node_budget;
        ] );
      ( "selection",
        [ Alcotest.test_case "twelve apps: ILP measured <= greedy" `Slow
            test_apps_ilp_no_worse_measured;
          Alcotest.test_case "kmeans 20-node decision pinned or justified"
            `Quick test_kmeans_20node_decision;
        ] );
      ( "lint",
        [ Alcotest.test_case "W-FUSION-MISSED" `Quick test_fusion_missed_lint ]
      );
      ("random", [ qt prop_ilp_plan_no_worse ]);
      ( "explain-json",
        [ Alcotest.test_case "golden schema for kmeans_tiny" `Quick
            test_explain_plan_json_schema ] );
    ]
