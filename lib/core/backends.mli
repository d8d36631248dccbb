(** Backend resolution (DESIGN.md §17): where [Config.target] meets the
    {!Dmll_backend.Registry}.

    Declares one {!Dmll_backend.Backend.payload} constructor per
    execution target, implements and registers the built-in backend
    modules, and exposes {!resolve} — the single function the driver
    calls instead of pattern-matching targets. *)

type Dmll_backend.Backend.payload +=
  | Closure_p
  | Multicore_p of {
      domains : int;
      faults : Dmll_runtime.Fault.t option;
      checkpoint_every : int;
    }
  | Numa_p of Dmll_runtime.Sim_numa.config
  | Gpu_p of Dmll_runtime.Sim_gpu.options
  | Sim_cluster_p of {
      config : Dmll_runtime.Sim_cluster.config;
      selector : Config.plan_selector;
    }
  | Proc_p of Dmll_runtime.Proc_cluster.config
  | Net_p of Dmll_runtime.Net_cluster.config
  | Native_p of Dmll_backend.Kernel_cache.t

val ensure_registered : unit -> unit
(** Populate the registry with every built-in backend (idempotent).
    Anything that enumerates the registry ([dmllc --explain backends])
    must call this first; {!resolve} does so itself. *)

val id_of_target : Config.target -> string
(** The registry id serving a target ([Sequential] → ["closure"],
    [Native] → ["native"], …). *)

val cache_for : string option -> Dmll_backend.Kernel_cache.t
(** The kernel cache rooted at a directory, memoized per root so
    repeated resolves share one memory LRU ([None] = the process-wide
    shared cache). *)

val resolve :
  Config.t -> (module Dmll_backend.Backend.S) * Dmll_backend.Backend.payload
(** The backend serving [cfg.target], with the payload its [execute]
    will consume — [cfg]'s fault/checkpoint/memory knobs and
    observability sinks overlaid onto the target's own config. *)

val plan_of_target : Config.target -> Dmll_backend.Backend.plan
(** The compile-time plan for a bare target under default knobs — what
    [Dmll.lint] and other config-less consumers use. *)
