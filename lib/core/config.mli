(** Run configuration: one record replacing scattered optional arguments,
    environment variables, and process-global state.

    Build one with {!default} (or {!of_env}) and the [with_*] builders:

    {[
      let cfg =
        Dmll.Config.(
          of_env ()
          |> with_target (Cluster Dmll_runtime.Sim_cluster.default_config)
          |> with_trace_file "out.json" |> armed)
      in
      let compiled = Dmll.compile_with cfg program in
      let r = Dmll.execute cfg compiled ~inputs in
      ...
    ]} *)

module Span = Dmll_obs.Span
module Metrics = Dmll_obs.Metrics

(** Execution targets.  All targets compute exact values; [Sequential],
    [Multicore], [Proc_cluster], and [Net_cluster] measure real
    wall-clock time, the others model the paper's testbeds (see
    [Dmll_machine.Machine]). *)
type target =
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

(** How cluster compiles choose among interacting fusion / rewrite /
    partition-layout decisions (re-export of
    [Dmll_analysis.Plan.selector]): [Greedy] keeps the historical
    per-decision linear searches; [Ilp] solves the joint plan space as a
    0-1 ILP (DESIGN.md §15), falling back to greedy automatically when
    the solver exhausts its node budget or its plan would move more
    bytes than greedy's.  Only cluster-modeled targets consult this;
    every other target always uses the greedy pipeline. *)
type plan_selector = Dmll_analysis.Plan.selector = Greedy | Ilp

type t = {
  target : target;
  debug : bool;
      (** re-verify every optimizer stage and replanned chunk, and hold
          the runtime to its validation contracts (C-COMM-OVERRUN,
          O-SPAN-CLOCK) *)
  faults : Dmll_runtime.Fault.t option;
      (** fault injector for fault-capable targets; the caller keeps the
          handle, so injection statistics stay readable after the run *)
  checkpoint_every : int;
      (** snapshot cadence in spine loops ([<= 0] disables) *)
  mem_budget_gb : float option;  (** per-node memory budget override *)
  tracer : Span.t option;  (** span sink for compile and runtime spans *)
  metrics : Metrics.t option;
      (** per-run metrics ledger; {!Dmll.execute} creates a fresh one
          when [None], so two runs never share counters by accident *)
  trace_file : string option;
      (** where tools write the Chrome [trace_event] JSON ([--trace]) *)
  profile : bool;  (** tools print a self-time profile ([--profile]) *)
  plan_selector : plan_selector;
      (** joint plan selection policy for cluster targets ([Ilp] by
          default, with automatic greedy fallback) *)
  kernel_cache_dir : string option;
      (** root of the on-disk kernel cache for the [Native] target
          ([None] = the process-wide shared cache under the system temp
          dir); set per run for isolation (tests, benchmarks) *)
}

val default : t
(** Sequential, no debug, no faults, no checkpoints, no observability. *)

val with_target : target -> t -> t
val with_debug : bool -> t -> t
val with_faults : Dmll_runtime.Fault.t -> t -> t
val with_checkpoint_every : int -> t -> t
val with_mem_budget_gb : float -> t -> t
val with_tracer : Span.t -> t -> t
val with_metrics : Metrics.t -> t -> t
val with_trace_file : string -> t -> t
val with_profile : bool -> t -> t
val with_plan_selector : plan_selector -> t -> t
val with_kernel_cache_dir : string -> t -> t

val armed : t -> t
(** Ensure live observability sinks: a tracer when [trace_file] or
    [profile] was requested, and always a metrics ledger.  Idempotent —
    existing handles are kept. *)

val of_env : unit -> t
(** The configuration the [DMLL_*] environment variables describe, on
    top of {!default}: [DMLL_DEBUG=1] sets [debug]; [DMLL_FAULTS] (same
    key=value spec as [--faults]) arms a fault injector;
    [DMLL_KERNEL_CACHE_DIR] relocates the native kernel cache.  This is
    the {e single} environment reader in the tree; a malformed
    [DMLL_FAULTS] raises [Invalid_argument] loudly rather than silently
    running healthy. *)
