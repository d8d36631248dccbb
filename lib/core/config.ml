(** Run configuration: one record for everything that used to arrive
    through scattered optional arguments, environment variables, and
    process-global state.

    A [Config.t] names the execution target, the debug-verification
    level, the fault/checkpoint/memory knobs of the elastic runtime, and
    the observability sinks (span tracer + per-run metrics ledger,
    DESIGN.md §12).  [of_env] is the {e only} place in the tree that
    reads [DMLL_*] environment variables; everything downstream takes a
    config value. *)

module Runtime = Dmll_runtime
module Span = Dmll_obs.Span
module Metrics = Dmll_obs.Metrics

type target =
  | Sequential  (** closure backend, one core — the Table 2 configuration *)
  | Multicore of int  (** real OCaml domains *)
  | Numa of Runtime.Sim_numa.config  (** modeled NUMA machine *)
  | Gpu of Runtime.Sim_gpu.options  (** modeled GPU *)
  | Cluster of Runtime.Sim_cluster.config  (** modeled cluster *)
  | Proc_cluster of Runtime.Proc_cluster.config
      (** real forked worker processes (DESIGN.md §14) *)
  | Net_cluster of Runtime.Net_cluster.config
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
  faults : Runtime.Fault.t option;
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

let default =
  { target = Sequential;
    debug = false;
    faults = None;
    checkpoint_every = 0;
    mem_budget_gb = None;
    tracer = None;
    metrics = None;
    trace_file = None;
    profile = false;
    plan_selector = Ilp;
    kernel_cache_dir = None;
  }

(* ------------------------------------------------------------------ *)
(* Builders                                                            *)
(* ------------------------------------------------------------------ *)

let with_target target t = { t with target }
let with_debug debug t = { t with debug }
let with_faults faults t = { t with faults = Some faults }
let with_checkpoint_every checkpoint_every t = { t with checkpoint_every }
let with_mem_budget_gb g t = { t with mem_budget_gb = Some g }
let with_tracer tracer t = { t with tracer = Some tracer }
let with_metrics metrics t = { t with metrics = Some metrics }
let with_trace_file f t = { t with trace_file = Some f }
let with_profile profile t = { t with profile }
let with_plan_selector plan_selector t = { t with plan_selector }
let with_kernel_cache_dir d t = { t with kernel_cache_dir = Some d }

(** Ensure the config carries live observability sinks: a tracer when
    tracing or profiling was requested, and always a metrics ledger.
    Idempotent — existing handles are kept. *)
let armed (t : t) : t =
  let t =
    match t.tracer with
    | Some _ -> t
    | None ->
        if t.trace_file <> None || t.profile then
          { t with tracer = Some (Span.create ()) }
        else t
  in
  match t.metrics with
  | Some _ -> t
  | None -> { t with metrics = Some (Metrics.create ()) }

(* ------------------------------------------------------------------ *)
(* Environment                                                         *)
(* ------------------------------------------------------------------ *)

let truthy = function Some ("1" | "true" | "yes") -> true | _ -> false

(** The configuration the [DMLL_*] environment variables describe, on
    top of {!default}: [DMLL_DEBUG=1] sets [debug]; [DMLL_FAULTS] (same
    key=value spec as [--faults]) arms a fault injector;
    [DMLL_KERNEL_CACHE_DIR] relocates the native kernel cache.  This is
    the single environment reader in the tree; a malformed [DMLL_FAULTS]
    raises [Invalid_argument] loudly rather than silently running
    healthy. *)
let of_env () : t =
  let debug = truthy (Sys.getenv_opt "DMLL_DEBUG") in
  let faults =
    match Sys.getenv_opt "DMLL_FAULTS" with
    | None | Some "" -> None
    | Some s -> (
        match Runtime.Fault.parse s with
        | Ok spec -> Some (Runtime.Fault.create spec)
        | Error msg -> invalid_arg (Printf.sprintf "DMLL_FAULTS: %s" msg))
  in
  let kernel_cache_dir =
    match Sys.getenv_opt "DMLL_KERNEL_CACHE_DIR" with
    | None | Some "" -> None
    | some -> some
  in
  { default with debug; faults; kernel_cache_dir }
