(* dmllc: the DMLL compiler explorer.

   Shows what the compiler does to a named application, stage by stage —
   the tooling equivalent of the paper's walk through k-means (Figures
   1/4/5): source IR, optimized IR, partitioning layouts and stencils,
   applied rules, and (optionally) generated C++/CUDA/Scala.

   --explain comm adds the static communication-volume analysis
   (DESIGN.md §10): per-loop comm plans, per-collection totals, and the
   cost-guided rewrite decisions with every rejected alternative. *)

module Comm = Dmll_analysis.Comm
module Mem = Dmll_analysis.Mem
module Partition = Dmll_analysis.Partition
module Plan = Dmll_analysis.Plan
module M = Dmll_machine.Machine

(* Each app registers its builder plus the element counts of its named
   inputs (matching the builder's dimensions), so the static comm plans
   resolve against real sizes instead of the default length. *)
let apps : (string * (unit -> Dmll_ir.Exp.exp) * (string * int) list) list =
  [ ( "kmeans",
      (fun () -> Dmll_apps.Kmeans.program ~rows:1000 ~cols:16 ~k:8 ()),
      [ ("matrix", 16000); ("clusters", 128) ] );
    ( "kmeans_tiny",
      (* small enough that accepting remote reads beats every rewrite's
         gather volume: the cost-guided search keeps the program *)
      (fun () -> Dmll_apps.Kmeans.program ~rows:64 ~cols:4 ~k:4 ()),
      [ ("matrix", 256); ("clusters", 16) ] );
    ( "kmeans_iter",
      (* three unrolled Lloyd iterations: each intermediate centroid set
         dies as soon as the next one is computed — the early-free
         showcase (--explain mem shows the peak with and without it) *)
      (fun () ->
        Dmll_apps.Kmeans.program_iterated ~rows:1000 ~cols:16 ~k:8 ~iters:4 ()),
      [ ("matrix", 16000); ("clusters", 128) ] );
    ( "logreg",
      (fun () -> Dmll_apps.Logreg.program ~rows:1000 ~cols:16 ~alpha:0.01 ()),
      [ ("matrix", 16000); ("y", 1000); ("theta", 16) ] );
    ( "logreg_iter",
      (fun () ->
        Dmll_apps.Logreg.program_iterated ~rows:1000 ~cols:16 ~alpha:0.01
          ~iters:4 ()),
      [ ("matrix", 16000); ("y", 1000); ("theta", 16) ] );
    ( "gda",
      (fun () -> Dmll_apps.Gda.program ~rows:1000 ~cols:8 ()),
      [ ("matrix", 8000); ("y", 1000) ] );
    ("tpch_q1", (fun () -> Dmll_apps.Tpch_q1.program ()), []);
    ("gene", (fun () -> Dmll_apps.Gene.program ()), []);
    ( "pagerank_pull",
      (fun () -> Dmll_apps.Pagerank.program_pull ~nv:1024 ()),
      [ ("ranks", 1024); ("g.in_offsets", 1025); ("g.out_deg", 1024) ] );
    ( "pagerank_iter",
      (fun () -> Dmll_apps.Pagerank.program_pull_iterated ~nv:1024 ~iters:4 ()),
      [ ("ranks", 1024); ("g.in_offsets", 1025); ("g.out_deg", 1024) ] );
    ( "pagerank_push",
      (fun () -> Dmll_apps.Pagerank.program_push ~nv:1024 ()),
      [ ("ranks", 1024); ("g.out_deg", 1024) ] );
    ("tricount", (fun () -> Dmll_apps.Tricount.program ()), []);
    ( "knn",
      (fun () ->
        Dmll_apps.Knn.program ~train_rows:1000 ~test_rows:100 ~cols:8 ()),
      [ ("train", 8000); ("test", 800) ] );
    ( "naive_bayes",
      (fun () -> Dmll_apps.Naive_bayes.program ~rows:1000 ~cols:8 ()),
      [ ("matrix", 8000); ("labels", 1000) ] );
    ( "gibbs",
      (fun () -> Dmll_apps.Gibbs.program ~nvars:1000 ~replicas:4 ()),
      [] );
    ( "ridge",
      (fun () ->
        Dmll_apps.Ridge.program ~rows:1000 ~cols:16 ~alpha:0.001 ~lambda:0.1 ()),
      [ ("matrix", 16000); ("y", 1000); ("theta", 16) ] );
  ]

let app_names = List.map (fun (n, _, _) -> n) apps
let find_app name = List.find_opt (fun (n, _, _) -> String.equal n name) apps

open Cmdliner
module Config = Dmll.Config

let app_arg =
  let doc =
    Printf.sprintf
      "Application to compile. One of: %s; or $(b,all) (with --lint or \
       --explain).  Optional for $(b,--explain backends)."
      (String.concat ", " app_names)
  in
  Arg.(value & pos 0 (some string) None & info [] ~docv:"APP" ~doc)

let lint =
  Arg.(
    value & flag
    & info [ "lint" ]
        ~doc:
          "Run the parallel-safety verifier over the fully optimized program \
           and print its diagnostics (rule ids are documented in DESIGN.md \
           §8). Exits 1 when any Error-severity finding is reported. With APP \
           = $(b,all), lints every registered application.")

let explain_arg =
  Arg.(
    value
    & opt
        (some
           (enum
              [ ("comm", `Comm); ("mem", `Mem); ("plan", `Plan);
                ("backends", `Backends) ]))
        None
    & info [ "explain" ] ~docv:"WHAT"
        ~doc:
          "Print a compiler analysis instead of the compilation walkthrough.  \
           $(b,comm): the static communication-volume analysis (DESIGN.md \
           §10) — cost-guided rewrite decisions (chosen vs rejected, with \
           predicted bytes), each outer loop's comm plan, and \
           per-collection totals.  $(b,mem): the static memory-footprint & \
           liveness analysis (DESIGN.md §13) — liveness windows, resident \
           sets, the symbolic peak with and without early-free, and the \
           admission decision.  $(b,plan): the global plan-space analysis \
           (DESIGN.md §15) — joint rewrite/fusion/partition configurations, \
           ILP solver statistics, and the chosen plan vs the greedy \
           baseline.  $(b,backends): the backend registry (DESIGN.md §17) — \
           every registered execution backend with its capabilities (no APP \
           needed).  With APP = $(b,all), explains every registered \
           application.  Composes with $(b,--json) and $(b,--nodes).")

let json =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:"With --explain, emit machine-readable JSON (one object per \
              application; one registry object for backends).")

let show_source =
  Arg.(value & flag & info [ "source" ] ~doc:"Print the source (staged) IR.")

let show_codegen =
  Arg.(
    value
    & opt (some (enum [ ("cpp", `Cpp); ("cuda", `Cuda); ("scala", `Scala) ])) None
    & info [ "emit" ] ~docv:"LANG" ~doc:"Emit generated code (cpp, cuda, or scala).")

let gpu =
  Arg.(value & flag & info [ "gpu" ] ~doc:"Lower for GPU (Row-to-Column + transpose).")

let header title = Printf.printf "\n=== %s ===\n" title

let select_apps ~flag app =
  let selected =
    if String.equal app "all" then Some apps
    else Option.map (fun a -> [ a ]) (find_app app)
  in
  match selected with
  | Some sel -> sel
  | None ->
      Printf.eprintf "unknown app %S; try one of: %s%s\n" app
        (String.concat ", " app_names)
        (if flag then ", all" else "");
      exit 1

(* Compile one app and print its lint report; returns true when any
   Error-severity diagnostic was produced. *)
let lint_one cfg (name, build, _) =
  let c = Dmll.compile_with cfg (build ()) in
  let diags = Dmll.lint c in
  header (Printf.sprintf "lint: %s" name);
  if diags = [] then print_endline "  no findings";
  List.iter (fun d -> Fmt.pr "  @[<v>%a@]@." Dmll_analysis.Diag.pp_full d) diags;
  Dmll_analysis.Diag.has_errors diags

let run_lint cfg app =
  let selected = select_apps ~flag:true app in
  let any_error =
    List.fold_left (fun acc ab -> lint_one cfg ab || acc) false selected
  in
  if any_error then exit 1

(* ---------------- --explain comm ---------------- *)

(* Run the cost-guided partitioning analysis on the generically optimized
   program — crucially WITHOUT the CPU nested rules, so the Figure-3
   rewrites are chosen (or rejected) here, by predicted volume, and every
   alternative shows up in the decision log. *)
let explain_one ~json:as_json ~machine (name, build, input_lens) =
  let source = build () in
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
  if as_json then
    print_endline
      (Partition.explain_to_json ~app:name
         ~decisions:report.Partition.decisions summary)
  else begin
    header (Printf.sprintf "comm: %s (%d nodes)" name machine.M.nodes);
    (match report.Partition.decisions with
    | [] -> print_endline "  no stencil-triggered rewrite was applicable"
    | ds ->
        print_endline "  cost-guided rewrite decisions:";
        List.iter
          (fun (d : Partition.decision) ->
            Printf.printf "    iteration %d:\n" d.Partition.iteration;
            List.iter
              (fun (n, v) ->
                Printf.printf "      %-28s %-10s%s\n" n (Comm.fmt_bytes v)
                  (if String.equal n d.Partition.chosen then "<- chosen" else ""))
              d.Partition.candidates)
          ds);
    Fmt.pr "%a" Comm.pp_summary summary
  end

let run_explain ~json ~nodes app =
  let machine = Common_cli.cluster_machine ?nodes () in
  List.iter (explain_one ~json ~machine) (select_apps ~flag:true app)

(* ---------------- --explain plan ---------------- *)

(* Generic optimization with horizontal fusion deferred, so the plan
   analysis owns the fusion decision jointly with the Figure-3 rewrites
   and partition-layout demotions — the same compilation split the
   cluster driver uses under [Config.plan_selector = Ilp]. *)
let explain_plan_one ~json:as_json ~machine (name, build, input_lens) =
  let source = build () in
  let generic =
    (Dmll_opt.Pipeline.optimize_with ~extra_rules:[] ~horizontal_fusion:false
       source)
      .Dmll_opt.Pipeline.program
  in
  let r =
    Plan.analyze ~transforms:Dmll_opt.Rules_nested.cpu_rules ~machine
      ~input_lens generic
  in
  if as_json then print_endline (Plan.explain_to_json ~app:name r.Plan.explain)
  else begin
    header (Printf.sprintf "plan: %s (%d nodes)" name machine.M.nodes);
    Fmt.pr "%a" Plan.pp_explain r.Plan.explain
  end

let run_explain_plan ~json ~nodes app =
  let machine = Common_cli.cluster_machine ?nodes () in
  List.iter (explain_plan_one ~json ~machine) (select_apps ~flag:true app)

(* ---------------- --explain mem ---------------- *)

(* Same compilation path as --explain comm (generic optimize without the
   CPU nested rules, then the cost-guided partitioning analysis), plus
   the early-free pass — the summary shows the peak both with and
   without it, so the liveness payoff is visible per app. *)
let explain_mem_one ~json:as_json ~machine (name, build, input_lens) =
  let source = build () in
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
  let fr = Dmll_opt.Free_insertion.run base in
  let summary =
    Mem.summarize ~input_lens ~machine ~layout_of
      fr.Dmll_opt.Free_insertion.program
  in
  let peak_no_free = Mem.static_peak ~input_lens ~machine ~layout_of base in
  let admission = Mem.admit summary in
  if as_json then
    print_endline (Mem.summary_to_json ~app:name ~admission ~peak_no_free summary)
  else begin
    header (Printf.sprintf "mem: %s (%d nodes)" name machine.M.nodes);
    (match fr.Dmll_opt.Free_insertion.freed with
    | [] -> print_endline "  early-free: nothing to free"
    | syms ->
        Printf.printf "  early-free: %s\n"
          (String.concat ", " (List.map Dmll_ir.Sym.to_string syms)));
    Fmt.pr "%a" Mem.pp_summary summary;
    Printf.printf "  peak without early-free: %s\n"
      (Comm.fmt_bytes peak_no_free);
    Printf.printf "  admission: %s\n" (Mem.admission_to_string admission)
  end

let run_explain_mem ~json ~nodes app =
  let machine = Common_cli.cluster_machine ?nodes () in
  List.iter (explain_mem_one ~json ~machine) (select_apps ~flag:true app)

(* ---------------- --explain backends ---------------- *)

let run_explain_backends ~json =
  Dmll.Backends.ensure_registered ();
  if json then print_endline (Dmll_backend.Registry.to_json ())
  else begin
    header "backends";
    print_string (Dmll_backend.Registry.describe_table ())
  end

let main app show_src emit gpu lint explain json nodes debug trace profile =
  let require_app () =
    match app with
    | Some a -> a
    | None ->
        Printf.eprintf "dmllc: an APP argument is required; one of: %s, all\n"
          (String.concat ", " app_names);
        exit 1
  in
  let target =
    if gpu then
      Dmll.Gpu { Dmll_runtime.Sim_gpu.transpose = true; row_to_column = true }
    else Dmll.Sequential
  in
  let cfg =
    Config.with_target target (Common_cli.config ~debug ?trace ~profile ())
  in
  match explain with
  | Some `Backends -> run_explain_backends ~json
  | Some `Comm -> run_explain ~json ~nodes (require_app ())
  | Some `Plan -> run_explain_plan ~json ~nodes (require_app ())
  | Some `Mem -> run_explain_mem ~json ~nodes (require_app ())
  | None ->
  if lint then run_lint cfg (require_app ())
  else begin
  let app = require_app () in
  (match find_app app with
  | None ->
      Printf.eprintf "unknown app %S; try one of: %s\n" app
        (String.concat ", " app_names);
      exit 1
  | Some (_, build, _) ->
      let source = build () in
      let c = Dmll.compile_with cfg source in
      if show_src then begin
        header "Source IR";
        print_endline (Dmll_ir.Pp.to_string c.Dmll.source)
      end;
      header "Optimizations applied";
      List.iter (fun n -> Printf.printf "  - %s\n" n) (Dmll.optimizations c);
      header "Partitioning";
      List.iter
        (fun (t, l) ->
          Printf.printf "  %-24s %s\n"
            (Dmll_analysis.Stencil.target_to_string t)
            (match l with Dmll_ir.Exp.Partitioned -> "Partitioned" | _ -> "Local"))
        c.Dmll.partition.Dmll_analysis.Partition.layouts;
      header "Global read stencils";
      List.iter
        (fun (t, s) ->
          Printf.printf "  %-24s %s\n"
            (Dmll_analysis.Stencil.target_to_string t)
            (Dmll_analysis.Stencil.to_string s))
        c.Dmll.partition.Dmll_analysis.Partition.stencils;
      (match Dmll.warnings c with
      | [] -> ()
      | ws ->
          header "Warnings";
          List.iter (fun w -> Printf.printf "  ! %s\n" w) ws);
      header "Final IR";
      print_endline (Dmll_ir.Pp.to_string c.Dmll.final);
      (match emit with
      | Some lang ->
          header "Generated code";
          print_endline (Dmll.codegen lang c)
      | None -> ()));
  Common_cli.emit_observability cfg
  end

let cmd =
  let doc = "explore the DMLL compilation pipeline for a benchmark application" in
  Cmd.v
    (Cmd.info "dmllc" ~doc)
    Term.(
      const main $ app_arg $ show_source $ show_codegen $ gpu $ lint
      $ explain_arg $ json
      $ Common_cli.nodes_arg $ Common_cli.debug_arg $ Common_cli.trace_arg
      $ Common_cli.profile_arg)

let () = exit (Cmd.eval cmd)
