(* Tests of the static memory-footprint & liveness analysis and the
   liveness-driven early-free pass (DESIGN.md §13): the free-insertion
   pass must preserve semantics bit-for-bit on random programs, the
   W-DEAD-ARRAY lint must fire exactly on never-read partitioned
   collections, the admission decision table must cover its three
   outcomes, every application must uphold the M-MEM-OVERRUN contract
   (measured resident <= slack * predicted + floor, per loop) at several
   cluster sizes, and early-free must shrink both the predicted and the
   measured peaks on the iterated pipelines. *)

open Dmll_ir
open Exp
module R = Dmll_runtime
module M = Dmll_machine.Machine
module V = Dmll_interp.Value
module Interp = Dmll_interp.Interp
module Mem = Dmll_analysis.Mem
module Partition = Dmll_analysis.Partition
module Diag = Dmll_analysis.Diag
module Free_insertion = Dmll_opt.Free_insertion
module Metrics = Dmll_obs.Metrics
module Config = Dmll.Config

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
  let saved = !Mem.validate_enabled in
  Mem.validate_enabled := true;
  Fun.protect ~finally:(fun () -> Mem.validate_enabled := saved) f

let compile_seq program =
  Dmll.compile_with (Config.with_target Dmll.Sequential Config.default) program

let layout_of_program program =
  let layouts =
    (Partition.analyze ~transforms:[] ~reoptimize:Fun.id program)
      .Partition.layouts
  in
  fun t -> Partition.layout_of t layouts

let input_lens_of inputs =
  List.filter_map
    (fun (n, v) ->
      match v with V.Varr _ | V.Vmap _ -> Some (n, V.length v) | _ -> None)
    inputs

(* ---------------- the contract itself -------------------------------- *)

let test_contract_trips_on_overrun () =
  (* within slack: accepted *)
  Mem.check_measured ~site:"t" ~label:"loop0" ~predicted:1000.0 ~measured:1200.0;
  (* scalar-only resident under the floor: accepted *)
  Mem.check_measured ~site:"t" ~label:"loop0" ~predicted:0.0 ~measured:64.0;
  (* beyond slack + floor: M-MEM-OVERRUN *)
  match
    Mem.check_measured ~site:"t" ~label:"loop0" ~predicted:1000.0
      ~measured:((Mem.slack *. 1000.0) +. Mem.slack_floor_bytes +. 1.0)
  with
  | () -> Alcotest.fail "expected M-MEM-OVERRUN"
  | exception Diag.Failed { diags; _ } ->
      check tbool "rule id is M-MEM-OVERRUN" true
        (Diag.has_rule diags "M-MEM-OVERRUN")

(* ---------------- liveness windows and early-free --------------------- *)

(* xs --(collect a)--> a --(collect b)--> b --(sum)--> scalar:
   after free-insertion [a] must die right after its last use, while
   without the pass it stays resident to the end of the spine. *)
let chain_program () =
  let open Builder in
  let input = Input ("xs", Types.Arr Types.Float, Partitioned) in
  let a = Sym.fresh ~name:"a" (Types.Arr Types.Float) in
  let b = Sym.fresh ~name:"b" (Types.Arr Types.Float) in
  let mk_collect src =
    let i = Sym.fresh ~name:"i" Types.Int in
    Loop
      { size = Len src;
        idx = i;
        gens = [ Collect { cond = None; value = Read (src, Var i) *. float_ 2.0 } ];
      }
  in
  Let
    ( a,
      mk_collect input,
      Let (b, mk_collect (Var a), fsum ~size:(Len (Var b)) (fun i -> Read (Var b, i)))
    )

let find_live lives name =
  List.find_opt
    (fun (lv : Mem.live) ->
      match lv.Mem.target with
      | Dmll_analysis.Stencil.Tsym s -> Sym.name s = name
      | _ -> false)
    lives

let test_liveness_and_free () =
  let base = chain_program () in
  let layout_of = layout_of_program base in
  let plan = Mem.plan_of_program ~layout_of base in
  (match find_live plan.Mem.lives "a" with
  | None -> Alcotest.fail "no live entry for a"
  | Some lv ->
      check tbool "a not freed without the pass" false lv.Mem.freed;
      check tbool "a resident to the end" true
        (lv.Mem.dies_at = plan.Mem.spine_len));
  let fr = Free_insertion.run base in
  check tbool "free-insertion freed something" true (fr.Free_insertion.freed <> []);
  let freed_plan =
    Mem.plan_of_program ~layout_of:(layout_of_program fr.Free_insertion.program)
      fr.Free_insertion.program
  in
  (match find_live freed_plan.Mem.lives "a" with
  | None -> Alcotest.fail "no live entry for a after free-insertion"
  | Some lv ->
      check tbool "a freed by the pass" true lv.Mem.freed;
      check tbool "a dies before the end of the spine" true
        (lv.Mem.dies_at < freed_plan.Mem.spine_len);
      check tbool "a survives past its last use" true
        (lv.Mem.dies_at > lv.Mem.last_use));
  (* semantics unchanged, bit for bit *)
  let inputs = [ ("xs", V.of_float_array (Array.init 64 float_of_int)) ] in
  check tbool "interpreter value unchanged" true
    (V.equal (Interp.run ~inputs base) (Interp.run ~inputs fr.Free_insertion.program))

(* ---------------- W-DEAD-ARRAY --------------------------------------- *)

let test_dead_array_warning () =
  let open Builder in
  let input = Input ("xs", Types.Arr Types.Float, Partitioned) in
  let d = Sym.fresh ~name:"deadarr" (Types.Arr Types.Float) in
  let i = Sym.fresh ~name:"i" Types.Int in
  let materialize =
    Loop
      { size = Len input;
        idx = i;
        gens = [ Collect { cond = None; value = Read (input, Var i) *. float_ 2.0 } ];
      }
  in
  (* [d] is bound but never read *)
  let dead = Let (d, materialize, fsum ~size:(int_ 4) (fun j -> i2f j)) in
  let diags = Mem.dead_array_diags ~layout_of:(layout_of_program dead) dead in
  check tbool "W-DEAD-ARRAY fired" true (Diag.has_rule diags "W-DEAD-ARRAY");
  (* the same binding, consumed: no warning *)
  let live =
    Let (d, materialize, fsum ~size:(Len (Var d)) (fun j -> Read (Var d, j)))
  in
  check tbool "no warning when the array is read" true
    (Mem.dead_array_diags ~layout_of:(layout_of_program live) live = [])

(* ---------------- admission decision table ---------------------------- *)

let test_admission_table () =
  let name, program, inputs = List.nth apps 0 (* kmeans *) in
  let c = compile_seq program in
  let layout_of = layout_of_program c.Dmll.final in
  let input_lens = input_lens_of inputs in
  let summarize ?budget_gb () =
    Mem.summarize ~input_lens ?budget_gb ~layout_of c.Dmll.final
  in
  let s = summarize () in
  check tbool (name ^ " has divisible bytes at the peak") true
    (s.Mem.peak_divisible_bytes > 0.0);
  check tbool (name ^ " has fixed bytes at the peak") true
    (s.Mem.peak_fixed_bytes > 0.0);
  (* generous budget (the ec2 default, 15 GB): admitted as-is *)
  check tbool "generous budget admits" true (Mem.admit s = Mem.Admit);
  let fixed = s.Mem.peak_fixed_bytes and div = s.Mem.peak_divisible_bytes in
  (* headroom for a quarter of the divisible bytes: sub-chunk about 4x *)
  let squeezed = summarize ~budget_gb:((fixed +. (div /. 4.0)) /. 1e9) () in
  (match Mem.admit squeezed with
  | Mem.Chunk_smaller k ->
      check tbool "chunk factor between 2 and the cap" true
        (k >= 2 && k <= Mem.max_chunk_factor)
  | a ->
      Alcotest.failf "expected chunk-smaller, got %s" (Mem.admission_to_string a));
  (* headroom so thin the chunk factor would blow past the cap: spill *)
  let sliver =
    summarize
      ~budget_gb:((fixed +. (div /. float_of_int (4 * Mem.max_chunk_factor))) /. 1e9)
      ()
  in
  check tbool "over-cap chunk factor spills ahead" true
    (Mem.admit sliver = Mem.Spill_ahead);
  (* budget below even the fixed terms: spill *)
  let starved = summarize ~budget_gb:(fixed /. 2.0 /. 1e9) () in
  check tbool "budget under the fixed bytes spills ahead" true
    (Mem.admit starved = Mem.Spill_ahead)

(* ---------------- free-insertion preserves semantics (random) --------- *)

let prop_free_preserves_interp =
  QCheck.Test.make ~count:100 ~name:"free-insertion = identity (interpreter)"
    Dmll_testgen.Gen_ir.arbitrary_program (fun e ->
      match Interp.run e with
      | exception Interp.Runtime_error _ -> QCheck.assume_fail ()
      | expected ->
          let fr = Free_insertion.run e in
          let got = Interp.run fr.Free_insertion.program in
          if V.equal expected got then true
          else
            QCheck.Test.fail_reportf "free-insertion changed semantics:@.%s@.%s vs %s"
              (Pp.to_string e) (V.to_string expected) (V.to_string got))

let prop_free_preserves_buckets =
  QCheck.Test.make ~count:60 ~name:"free-insertion = identity (bucket programs)"
    Dmll_testgen.Gen_ir.arbitrary_bucket_program (fun e ->
      match Interp.run e with
      | exception Interp.Runtime_error _ -> QCheck.assume_fail ()
      | expected ->
          V.equal expected (Interp.run (Free_insertion.run e).Free_insertion.program))

let prop_free_preserves_cluster =
  QCheck.Test.make ~count:60
    ~name:"free-insertion = identity (simulated cluster, validation armed)"
    Dmll_testgen.Gen_ir.arbitrary_partitioned_program (fun e ->
      let inputs = [ ("xs", V.of_float_array (Array.init 96 float_of_int)) ] in
      match Interp.run ~inputs e with
      | exception Interp.Runtime_error _ -> QCheck.assume_fail ()
      | expected ->
          with_validation (fun () ->
              let fr = Free_insertion.run e in
              let run p =
                (R.Sim_cluster.run ~config:(config_for 3) ~inputs p)
                  .R.Sim_common.value
              in
              V.equal expected (run e) && V.equal expected (run fr.Free_insertion.program)))

(* ---------------- every app upholds the contract --------------------- *)

let test_apps_validated () =
  with_validation (fun () ->
      List.iter
        (fun (name, program, inputs) ->
          let c = compile_seq program in
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
                  Alcotest.failf "%s@%d nodes: mem-plan overrun at %s: %s" name
                    n stage
                    (String.concat "; " (List.map Diag.to_string diags)))
            node_counts)
        apps)

(* ---------------- early-free shrinks predicted AND measured ----------- *)

let shrink_apps () =
  let open Dmll_apps in
  [ ("gda", Gda.program ~rows:50 ~cols:5 (), Gda.inputs lr_data);
    ( "kmeans_iter",
      Kmeans.program_iterated ~rows:60 ~cols:6 ~k:3 ~iters:4 (),
      Kmeans.inputs km_data ~centroids:km_centroids );
    ( "pagerank_iter",
      Pagerank.program_pull_iterated ~nv:pr_graph.Dmll_graph.Csr.nv ~iters:4 (),
      Pagerank.inputs pr_graph ~ranks:(Pagerank.initial_ranks pr_graph) );
  ]

let measured_peak ~n ~inputs program =
  let r = R.Sim_cluster.run ~config:(config_for n) ~inputs program in
  Metrics.bytes r.R.Sim_common.metrics "peak_resident_bytes"

let test_early_free_shrinks_peaks () =
  with_validation (fun () ->
      List.iter
        (fun (name, program, inputs) ->
          let c = compile_seq program in
          let base = c.Dmll.final in
          let freed = (Free_insertion.run base).Free_insertion.program in
          let layout_of = layout_of_program base in
          let input_lens = input_lens_of inputs in
          let machine = M.with_nodes 4 M.ec2_cluster in
          let predicted =
            Mem.static_peak ~input_lens ~machine ~layout_of freed
          in
          let predicted_no_free =
            Mem.static_peak ~input_lens ~machine ~layout_of base
          in
          check tbool
            (Printf.sprintf "%s: predicted peak strictly shrinks (%.0f < %.0f)"
               name predicted predicted_no_free)
            true
            (predicted < predicted_no_free);
          let measured = measured_peak ~n:4 ~inputs freed in
          let measured_no_free = measured_peak ~n:4 ~inputs base in
          check tbool
            (Printf.sprintf "%s: measured peak shrinks too (%.0f <= %.0f)" name
               measured measured_no_free)
            true
            (measured <= measured_no_free);
          (* the simulated values stay identical with the frees in *)
          check tbool (name ^ ": value unchanged under early-free") true
            (V.equal
               (R.Sim_cluster.run ~config:(config_for 4) ~inputs freed)
                 .R.Sim_common.value
               (R.Sim_cluster.run ~config:(config_for 4) ~inputs base)
                 .R.Sim_common.value))
        (shrink_apps ()))

(* ---------------- --explain mem --json golden schema ------------------ *)

open Dmll_testgen.Json_check

let tkeys = Alcotest.(list string)

let test_explain_mem_json_schema () =
  (* reproduce dmllc --explain mem kmeans_tiny --json --nodes 4
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
  let base = report.Partition.program in
  let fr = Free_insertion.run base in
  let summary =
    Mem.summarize ~input_lens ~machine ~layout_of fr.Free_insertion.program
  in
  let peak_no_free = Mem.static_peak ~input_lens ~machine ~layout_of base in
  let admission = Mem.admit summary in
  let json =
    Mem.summary_to_json ~app:"kmeans_tiny" ~admission ~peak_no_free summary
  in
  let doc = parse json in
  check tkeys "top-level keys"
    [ "app"; "nodes"; "budget_bytes"; "liveness"; "residents"; "peak_bytes";
      "peak_loop"; "peak_no_free_bytes"; "over_budget"; "admission" ]
    (keys_of doc);
  check Alcotest.string "app name" "kmeans_tiny" (str (field doc "app"));
  check (Alcotest.float 0.0) "nodes" 4.0 (num (field doc "nodes"));
  check tbool "budget is the ec2 node budget" true
    (num (field doc "budget_bytes") > 0.0);
  List.iter
    (fun lv ->
      check tkeys "liveness keys"
        [ "target"; "layout"; "bound_at"; "last_use"; "freed_at"; "dead";
          "resident_bytes" ]
        (keys_of lv);
      check tbool "layout is known" true
        (List.mem (str (field lv "layout")) [ "partitioned"; "local" ]);
      (match field lv "freed_at" with
      | Jnum _ | Jnull -> ()
      | _ -> Alcotest.fail "freed_at must be a number or null");
      check tbool "no dead arrays in kmeans_tiny" false
        (boolean (field lv "dead")))
    (arr (field doc "liveness"));
  let residents = arr (field doc "residents") in
  check tbool "kmeans_tiny has spine rows" true (residents <> []);
  List.iter
    (fun row ->
      check tkeys "resident row keys"
        [ "position"; "label"; "distributed"; "persistent_bytes";
          "transient_bytes"; "resident_bytes"; "terms" ]
        (keys_of row);
      (match field row "distributed" with
      | Jbool _ | Jnull -> ()
      | _ -> Alcotest.fail "distributed must be a bool or null");
      List.iter
        (fun t ->
          check tkeys "term keys" [ "kind"; "target"; "formula"; "bytes"; "note" ]
            (keys_of t);
          check tbool "term kind is known" true
            (List.mem (str (field t "kind"))
               [ "broadcast-copy"; "replica"; "halo"; "partials" ]);
          ignore (num (field t "bytes")))
        (arr (field row "terms")))
    residents;
  (* sym-independent pinned values *)
  check Alcotest.string "admission" "admit" (str (field doc "admission"));
  check tbool "not over budget" false (boolean (field doc "over_budget"));
  let peak = num (field doc "peak_bytes") in
  check tbool "peak is positive" true (peak > 0.0);
  check tbool "peak <= peak without early-free" true
    (peak <= num (field doc "peak_no_free_bytes"))

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "mem"
    [ ( "contract",
        [ Alcotest.test_case "slack and overrun" `Quick test_contract_trips_on_overrun ] );
      ( "liveness",
        [ Alcotest.test_case "windows and early-free" `Quick test_liveness_and_free;
          Alcotest.test_case "dead-array warning" `Quick test_dead_array_warning;
        ] );
      ( "admission",
        [ Alcotest.test_case "decision table" `Quick test_admission_table ] );
      ( "free-insertion",
        [ qt prop_free_preserves_interp;
          qt prop_free_preserves_buckets;
          qt prop_free_preserves_cluster;
        ] );
      ( "cluster",
        [ Alcotest.test_case "all apps validated at 2 and 5 nodes" `Slow
            test_apps_validated;
          Alcotest.test_case "early-free shrinks predicted and measured peaks"
            `Quick test_early_free_shrinks_peaks;
        ] );
      ( "explain-json",
        [ Alcotest.test_case "golden schema for kmeans_tiny" `Quick
            test_explain_mem_json_schema;
        ] );
    ]
