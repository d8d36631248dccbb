(** The DMLL compiler driver: the public entry point tying the pipeline of
    the paper together.

    {v
    stage (Dsl) → generic optimizations (fusion, CSE, motion, SoA/DFE)
               → partitioning analysis (Algorithm 1)
                  └ stencil-triggered Figure-3 rewrites
               → target lowering (CPU / NUMA / GPU / cluster)
               → execution (closure backend, domain executor, or a
                 simulated heterogeneous machine)
    v}

    A {!compiled} value carries every intermediate so tools ([dmllc]) can
    display the compilation the way the paper's figures walk through
    k-means. *)

open Dmll_ir
module V = Dmll_interp.Value
module Opt = Dmll_opt
module Analysis = Dmll_analysis
module Runtime = Dmll_runtime
module Backend = Dmll_backend
module Config = Config
module Span = Dmll_obs.Span
module Metrics = Dmll_obs.Metrics

type target = Config.target =
  | Sequential  (** closure backend, one core — the Table 2 configuration *)
  | Multicore of int  (** real OCaml domains *)
  | Numa of Runtime.Sim_numa.config  (** simulated NUMA machine *)
  | Gpu of Runtime.Sim_gpu.options  (** simulated GPU *)
  | Cluster of Runtime.Sim_cluster.config  (** simulated cluster *)
  | Proc_cluster of Runtime.Proc_cluster.config
      (** real forked worker processes (DESIGN.md §14) *)
  | Net_cluster of Runtime.Net_cluster.config
      (** TCP-attached worker processes, local or multi-host
          (DESIGN.md §14.2) *)
  | Native
      (** generated OCaml compiled by [ocamlopt] and dynlinked into this
          process, behind the content-addressed kernel cache
          (DESIGN.md §17) *)

module Backends = Backends

type compiled = {
  source : Exp.exp;
  generic : Exp.exp;  (** after the target-independent pipeline *)
  final : Exp.exp;  (** after partitioning-driven rewrites + lowering *)
  target : target;
  partition : Analysis.Partition.report;
  applied : string list;  (** every optimization that fired, in order *)
  gpu_lowered : bool;
}

(* ------------------------------------------------------------------ *)
(* Debug-mode verification                                              *)
(* ------------------------------------------------------------------ *)

(** In debug mode, every optimizer stage — and every individual rule
    application — re-runs the type checker and the parallel-safety
    verifier ({!Analysis.Verify}) on its result, failing fast with
    {!Analysis.Diag.Failed} on any Error-severity diagnostic, so a
    transformation bug is caught at the rule that introduced it rather
    than as a silently divergent answer.  Enabled per call
    ([compile ~debug:true]) or globally with [DMLL_DEBUG=1], read once
    here through {!Config.of_env} — the single environment reader.
    (A malformed [DMLL_FAULTS] is ignored at library load; tools that
    call [Config.of_env] themselves still fail loudly on it.) *)
let debug_default =
  (try Config.of_env () with Invalid_argument _ -> Config.default)
    .Config.debug

(* Typecheck + Verify one (possibly open) program; free symbols are
   treated as bound at their annotated types. *)
let verify_stage (stage : string) (e : Exp.exp) : unit =
  let declared = Exp.free_vars e in
  let env =
    Sym.Set.fold (fun s acc -> Sym.Map.add s (Sym.ty s) acc) declared Sym.Map.empty
  in
  (try ignore (Typecheck.infer env e)
   with Typecheck.Type_error err ->
     raise
       (Analysis.Diag.Failed
          { stage;
            diags =
              [ Analysis.Diag.error ~context:err.Typecheck.context ~rule:"V-TYPE" "%s"
                  err.Typecheck.message;
              ];
          }));
  Analysis.Verify.check_exn ~declared ~stage e

let with_debug_checks (debug : bool) (f : unit -> 'a) : 'a =
  if not debug then f ()
  else begin
    let saved = !Opt.Pipeline.post_stage_check in
    let saved_replan = !Runtime.Fault.post_replan_check in
    Opt.Pipeline.post_stage_check := Some verify_stage;
    Runtime.Fault.post_replan_check := Some verify_stage;
    Fun.protect
      ~finally:(fun () ->
        Opt.Pipeline.post_stage_check := saved;
        Runtime.Fault.post_replan_check := saved_replan)
      f
  end

(* Replanned chunk programs are built at {e run} time, outside any
   [with_debug_checks] scope around [compile] — so [DMLL_DEBUG=1] arms the
   recovery-path verification for the whole process, mirroring how it arms
   the optimizer-stage checks.  The same switch arms the runtime's
   prediction-vs-measurement contract (C-COMM-OVERRUN) and the span/clock
   contract (O-SPAN-CLOCK), which used to be armed by an environment read
   inside the analysis library. *)
let () =
  if debug_default then begin
    Runtime.Fault.post_replan_check := Some verify_stage;
    Analysis.Comm.validate_enabled := true;
    Analysis.Mem.validate_enabled := true
  end

(* Per-run arming of the same runtime validations, for [execute ~debug]
   without the environment switch. *)
let with_run_checks (debug : bool) (f : unit -> 'a) : 'a =
  if not debug then f ()
  else begin
    let saved_comm = !Analysis.Comm.validate_enabled in
    let saved_mem = !Analysis.Mem.validate_enabled in
    let saved_replan = !Runtime.Fault.post_replan_check in
    Analysis.Comm.validate_enabled := true;
    Analysis.Mem.validate_enabled := true;
    Runtime.Fault.post_replan_check := Some verify_stage;
    Fun.protect
      ~finally:(fun () ->
        Analysis.Comm.validate_enabled := saved_comm;
        Analysis.Mem.validate_enabled := saved_mem;
        Runtime.Fault.post_replan_check := saved_replan)
      f
  end

(** Compile a staged program under [cfg]: target from [cfg.target], debug
    verification from [cfg.debug], and — when [cfg.tracer] is set — one
    span per driver stage (cat ["compile"]), per pipeline stage
    (["pipeline"]), per rule firing (["rule"], with before/after IR
    sizes), and per partitioning-analysis step (["partition"]).

    The target shapes compilation only through its backend's
    {!Dmll_backend.Backend.plan} (resolved through the registry): the
    fusion objective that tie-breaks horizontal fusion, the machine
    model the partitioning analysis costs against, whether the global
    ILP plan selector owns fusion jointly with the Figure-3 rewrites,
    whether the liveness-driven early-free pass runs (DESIGN.md §13),
    and the final target-specific lowering. *)
let compile_with (cfg : Config.t) (source : Exp.exp) : compiled =
  let target = cfg.Config.target in
  let debug = cfg.Config.debug in
  let tracer = cfg.Config.tracer in
  let stage name f = Span.with_span ?tracer ~cat:"compile" name f in
  with_debug_checks debug @@ fun () ->
  let (module Bx : Backend.Backend.S), payload = Backends.resolve cfg in
  let plan = Bx.plan payload in
  let fusion_objective = plan.Backend.Backend.fusion_objective in
  let machine = plan.Backend.Backend.machine in
  let use_ilp = plan.Backend.Backend.wants_ilp in
  if debug then stage "verify-source" (fun () -> verify_stage "source" source);
  (* 1. target-independent optimizations, including the CPU-beneficial
     nested rules (GroupBy-Reduce and friends, §3.2).  When the global
     (ILP) plan selector owns horizontal fusion jointly with the
     Figure-3 rewrites, the generic pipeline defers fusion; otherwise
     fusion stays in the rewriter, tie-broken by the backend's
     objective (predicted communication volume on clusters). *)
  let r =
    stage "generic-optimize" (fun () ->
        Opt.Pipeline.optimize_with ?tracer
          ~extra_rules:Opt.Rules_nested.cpu_rules ?fusion_objective
          ~horizontal_fusion:(not use_ilp) source)
  in
  let generic = r.Opt.Pipeline.program in
  (* 2. partitioning analysis with stencil-triggered rewrites (§4):
     greedy per-decision search, or the global ILP plan selector *)
  let partition =
    stage "partition-analyze" (fun () ->
        if use_ilp then
          (Analysis.Plan.analyze ?tracer ?machine
             ?budget_gb:cfg.Config.mem_budget_gb generic)
            .Analysis.Plan.report
        else
          Analysis.Partition.analyze ?tracer ?fusion_objective ?machine
            generic)
  in
  let after_partition = partition.Analysis.Partition.program in
  (* 3. liveness-driven early-free (DESIGN.md §13), where the backend's
     plan asks for it *)
  let after_free, freed =
    if plan.Backend.Backend.early_free then
      let fr =
        stage "free-insertion" (fun () -> Opt.Free_insertion.run after_partition)
      in
      (fr.Opt.Free_insertion.program, fr.Opt.Free_insertion.freed <> [])
    else (after_partition, false)
  in
  (* 4. target-specific lowering, from the backend's plan *)
  let final, lower_applied =
    stage "target-lower" (fun () -> plan.Backend.Backend.lower after_free)
  in
  if debug then stage "verify-final" (fun () -> verify_stage "final" final);
  { source;
    generic;
    final;
    target;
    partition;
    applied =
      r.Opt.Pipeline.applied @ partition.Analysis.Partition.rewrites_applied
      @ (if freed then [ "free-insertion" ] else [])
      @ lower_applied;
    gpu_lowered = List.mem "row-to-column" lower_applied;
  }

(** Distinct optimizations that fired, in first-fired order (Table 2's
    "Optimizations" column). *)
let optimizations (c : compiled) : string list =
  List.fold_left (fun acc n -> if List.mem n acc then acc else acc @ [ n ]) [] c.applied

(** What one execution produced: the exact value, the time (wall-clock
    for the real targets, modeled for the simulated ones), the
    simulators' per-phase breakdown and measured traffic, and the run's
    metrics ledger. *)
type run_result = {
  value : V.t;
  seconds : float;
  wall_clock : bool;  (** measured wall time vs. modeled simulator time *)
  breakdown : (string * float) list;  (** per-phase seconds (simulators) *)
  traffic : (string * float) list;  (** measured network bytes (cluster) *)
  metrics : Metrics.t;  (** this run's counters — never shared by default *)
}

(** Execute a compiled program under [cfg]: the compiled target runs with
    [cfg]'s fault/checkpoint/memory knobs and observability sinks,
    resolved through the backend registry ({!Backends.resolve}) — the
    driver holds no per-target code.  A fresh metrics ledger is created
    when [cfg.metrics] is [None]; with [cfg.debug], the runtime
    validation contracts (replan verification, C-COMM-OVERRUN,
    O-SPAN-CLOCK) are armed for the duration. *)
let execute (cfg : Config.t) (c : compiled) ~(inputs : (string * V.t) list) :
    run_result =
  let metrics =
    match cfg.Config.metrics with Some m -> m | None -> Metrics.create ()
  in
  let cfg =
    { cfg with Config.metrics = Some metrics; Config.target = c.target }
  in
  with_run_checks cfg.Config.debug @@ fun () ->
  let (module Bx : Backend.Backend.S), payload = Backends.resolve cfg in
  let ctx =
    { Backend.Backend.metrics; tracer = cfg.Config.tracer; inputs }
  in
  let r = Bx.execute payload ctx c.final in
  { value = r.Backend.Backend.value;
    seconds = r.Backend.Backend.seconds;
    wall_clock = r.Backend.Backend.wall_clock;
    breakdown = r.Backend.Backend.breakdown;
    traffic = r.Backend.Backend.traffic;
    metrics = r.Backend.Backend.metrics;
  }

(** Emit target source text from the compiled program. *)
let codegen (lang : [ `Cpp | `Cuda | `Scala ]) (c : compiled) : string =
  match lang with
  | `Cpp -> Backend.Codegen_c.emit c.final
  | `Cuda -> Backend.Codegen_cuda.emit c.final
  | `Scala -> Backend.Codegen_scala.emit c.final

(** Drive an iterative algorithm: run the compiled program [iters] times,
    rebinding inputs between iterations via [feedback] (e.g. k-means feeds
    the new centroids back as ["clusters"]).  Compilation happens once;
    only the input bindings change. *)
let iterate (c : compiled) ~(inputs : (string * V.t) list)
    ~(feedback : V.t -> (string * V.t) list) ~(iters : int) : V.t =
  if iters <= 0 then invalid_arg "Dmll.iterate: iters must be positive";
  let exe = Backend.Closure.compile c.final in
  let rec go inputs i =
    let v = exe.Backend.Closure.run ~inputs () in
    if i >= iters then v
    else
      let rebound = feedback v in
      let inputs =
        rebound
        @ List.filter (fun (n, _) -> Stdlib.not (List.mem_assoc n rebound)) inputs
      in
      go inputs (i + 1)
  in
  go inputs 1

(** Warnings from the partitioning analysis, human-readable. *)
let warnings (c : compiled) : string list =
  List.map Analysis.Partition.warning_to_string c.partition.Analysis.Partition.warnings

(** Parallel-safety diagnostics for a compiled program: the verifier's
    findings on the fully optimized IR plus the partitioning analysis's
    warnings, most severe first.  Backs [dmllc --lint]. *)
let lint (c : compiled) : Analysis.Diag.t list =
  let layout_of t =
    Analysis.Partition.layout_of t c.partition.Analysis.Partition.layouts
  in
  let fusion_missed =
    (* W-FUSION-MISSED: adjacent fusible loops the compiled program kept
       separate even though fusing them moves strictly fewer bytes.
       Costed against the compile's own machine model when its backend
       plans one. *)
    match (Backends.plan_of_target c.target).Backend.Backend.machine with
    | Some machine -> Analysis.Plan.fusion_missed_diags ~machine c.final
    | None -> Analysis.Plan.fusion_missed_diags c.final
  in
  Analysis.Diag.sort
    (Analysis.Verify.run c.final
    @ Analysis.Partition.diags c.partition
    @ Analysis.Mem.dead_array_diags ~layout_of c.final
    @ fusion_missed)
