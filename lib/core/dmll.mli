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

    Typical use:

    {[
      let cfg = Dmll.Config.(of_env () |> with_target Dmll.Sequential) in
      let compiled = Dmll.compile_with cfg program in
      List.iter print_endline (Dmll.optimizations compiled);
      let r = Dmll.execute cfg compiled ~inputs in
      ...
    ]}

    Targets resolve through the backend registry
    ({!Backends.resolve} → {!Dmll_backend.Registry}): the driver holds
    no per-target code, and [dmllc --explain backends] enumerates what
    this build can execute. *)

open Dmll_ir
module V = Dmll_interp.Value

module Config : module type of Config
(** Run configuration — targets, debug verification, fault/checkpoint
    knobs, and observability sinks; see {!Config.of_env}, the single
    [DMLL_*] environment reader. *)

module Span = Dmll_obs.Span
module Metrics = Dmll_obs.Metrics

(** Execution targets ([= Config.target]).  All targets compute exact
    values; [Sequential], [Multicore], [Native], and the process/TCP
    clusters measure real wall-clock time, the others model the paper's
    testbeds (see [Dmll_machine.Machine]). *)
type target = Config.target =
  | Sequential  (** closure backend, one core — the Table 2 configuration *)
  | Multicore of int  (** real OCaml domains *)
  | Numa of Dmll_runtime.Sim_numa.config  (** modeled NUMA machine *)
  | Gpu of Dmll_runtime.Sim_gpu.options  (** modeled GPU *)
  | Cluster of Dmll_runtime.Sim_cluster.config  (** modeled cluster *)
  | Proc_cluster of Dmll_runtime.Proc_cluster.config
      (** real forked worker processes (DESIGN.md §14) *)
  | Net_cluster of Dmll_runtime.Net_cluster.config
      (** TCP-attached worker processes, local or multi-host
          (DESIGN.md §14.2) *)
  | Native
      (** generated OCaml compiled by [ocamlopt] and dynlinked into this
          process, behind the content-addressed kernel cache
          (DESIGN.md §17) *)

module Backends : module type of Backends
(** Backend resolution: [Config.target] → registered
    {!Dmll_backend.Backend.S} implementation plus its run payload.
    [Backends.ensure_registered ()] populates the registry for
    enumeration ([dmllc --explain backends]). *)

(** A compiled program, carrying every intermediate so tools ([dmllc]) can
    display the compilation the way the paper's figures walk through
    k-means. *)
type compiled = {
  source : Exp.exp;
  generic : Exp.exp;  (** after the target-independent pipeline *)
  final : Exp.exp;  (** after partitioning-driven rewrites + lowering *)
  target : target;
  partition : Dmll_analysis.Partition.report;
  applied : string list;  (** every optimization that fired, in order *)
  gpu_lowered : bool;  (** Row-to-Column applied for a GPU target *)
}

val debug_default : bool
(** Default of [compile]'s [?debug]: [true] when the [DMLL_DEBUG]
    environment variable is set to [1]/[true]/[yes]. *)

val verify_stage : string -> Exp.exp -> unit
(** [verify_stage stage e] typechecks [e] (free symbols assume their
    annotated types) and runs the parallel-safety verifier
    ({!Dmll_analysis.Verify}), raising {!Dmll_analysis.Diag.Failed} on any
    Error-severity finding.  This is the check [compile ~debug:true]
    installs behind every optimizer rule and pipeline stage. *)

val compile_with : Config.t -> Exp.exp -> compiled
(** Compile a staged program under a configuration: target from
    [cfg.target], debug verification from [cfg.debug], and — when
    [cfg.tracer] is set — one span per driver stage (cat ["compile"]),
    pipeline stage (["pipeline"]), rule firing (["rule"], with
    before/after IR sizes), and partitioning-analysis step
    (["partition"]).  The target shapes compilation only through its
    backend's plan ({!Backends.resolve}): fusion objective, machine
    model, ILP plan selection, early-free, and final lowering. *)

val optimizations : compiled -> string list
(** Distinct optimizations that fired, in first-fired order — the
    "Optimizations" column of the paper's Table 2. *)

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

val execute : Config.t -> compiled -> inputs:(string * V.t) list -> run_result
(** Execute a compiled program under [cfg]: the compiled target runs with
    [cfg]'s fault/checkpoint/memory knobs and observability sinks
    (tracer spans on the runtime timeline, counters into the metrics
    ledger), resolved through the backend registry — the driver holds no
    per-target code.  A fresh ledger is created when [cfg.metrics] is
    [None]; with [cfg.debug], the runtime validation contracts (replan
    verification, C-COMM-OVERRUN, O-SPAN-CLOCK) are armed for the
    duration of the run. *)

val codegen : [ `Cpp | `Cuda | `Scala ] -> compiled -> string
(** Emit target source text (for inspection; the executable backends are
    the closure compiler and [Dmll_backend.Native]). *)

val iterate :
  compiled ->
  inputs:(string * V.t) list ->
  feedback:(V.t -> (string * V.t) list) ->
  iters:int ->
  V.t
(** Drive an iterative algorithm: run [iters] times, rebinding inputs
    between iterations via [feedback] (e.g. k-means feeds the new
    centroids back as ["clusters"]); compiled once, executed many. *)

val warnings : compiled -> string list
(** Partitioning-analysis warnings (sequential access to partitioned data,
    runtime data movement fallbacks), human-readable. *)

val lint : compiled -> Dmll_analysis.Diag.t list
(** Parallel-safety diagnostics: the verifier's findings on the fully
    optimized IR plus the partitioning analysis's warnings, most severe
    first.  Backs [dmllc --lint]. *)
