(** Backend resolution (DESIGN.md §17): where [Config.target] meets the
    {!Dmll_backend.Registry}.

    The backend library defines the seam ({!Dmll_backend.Backend.S}) but
    sits below the runtime library, while most backends wrap runtime
    executors — so this module, which can see both sides, declares one
    {!Dmll_backend.Backend.payload} constructor per target, implements
    the eight backend modules, registers them, and exposes {!resolve}:
    the single function the driver ([Dmll.compile_with]/[Dmll.execute])
    calls instead of pattern-matching targets.

    Resolution also owns the knob {e overlay}: a cluster target whose
    config left faults / checkpoint cadence / observability unset
    inherits them from the surrounding [Config.t], so
    [dmll_run --faults ... --checkpoint-every ...] composes with a
    target the caller built directly. *)

module Runtime = Dmll_runtime
module Analysis = Dmll_analysis
module Bk = Dmll_backend
module B = Dmll_backend.Backend
module Metrics = Dmll_obs.Metrics

(* ------------------------------------------------------------------ *)
(* Payloads                                                            *)
(* ------------------------------------------------------------------ *)

type B.payload +=
  | Closure_p
  | Multicore_p of {
      domains : int;
      faults : Runtime.Fault.t option;
      checkpoint_every : int;
    }
  | Numa_p of Runtime.Sim_numa.config
  | Gpu_p of Runtime.Sim_gpu.options
  | Sim_cluster_p of {
      config : Runtime.Sim_cluster.config;
      selector : Config.plan_selector;
    }
  | Proc_p of Runtime.Proc_cluster.config
  | Net_p of Runtime.Net_cluster.config
  | Native_p of Bk.Kernel_cache.t

(* ------------------------------------------------------------------ *)
(* Shared result shapes                                                *)
(* ------------------------------------------------------------------ *)

let wall ~(metrics : Metrics.t) value seconds : B.exec_result =
  { B.value; seconds; wall_clock = true; breakdown = []; traffic = []; metrics }

let of_sim ~(metrics : Metrics.t) (r : Runtime.Sim_common.result) :
    B.exec_result =
  { B.value = r.Runtime.Sim_common.value;
    seconds = r.Runtime.Sim_common.seconds;
    wall_clock = false;
    breakdown = r.Runtime.Sim_common.breakdown;
    traffic = r.Runtime.Sim_common.traffic;
    metrics;
  }

(* Both real-process executors return the supervisor's result. *)
let of_supervised ~traffic (r : Runtime.Supervisor.result) : B.exec_result =
  { B.value = r.Runtime.Supervisor.value;
    seconds = r.seconds;
    wall_clock = true;
    breakdown = r.breakdown;
    traffic;
    metrics = r.metrics;
  }

let identity_lower e = (e, [])

(* ------------------------------------------------------------------ *)
(* The backends                                                        *)
(* ------------------------------------------------------------------ *)

module Closure_backend : B.S = struct
  let id = "closure"
  let describe = "in-process closure compiler, one core (Table 2 baseline)"

  let capabilities =
    { B.wall_clock = true;
      parallel = false;
      distributed = false;
      fault_injection = false;
      checkpointing = false;
      mem_budget = false;
      emits_source = false;
      cacheable_kernels = false;
    }

  let plan = function
    | Closure_p -> B.default_plan
    | _ -> B.wrong_payload id

  let emit _ _ = None

  let execute p (ctx : B.ctx) e =
    match p with
    | Closure_p ->
        let v, t =
          Dmll_util.Timing.time (fun () -> Bk.Closure.run ~inputs:ctx.B.inputs e)
        in
        wall ~metrics:ctx.B.metrics v t
    | _ -> B.wrong_payload id
end

module Multicore_backend : B.S = struct
  let id = "multicore"
  let describe = "real OCaml domains with work-stealing chunks"

  let capabilities =
    { B.wall_clock = true;
      parallel = true;
      distributed = false;
      fault_injection = true;
      checkpointing = true;
      mem_budget = false;
      emits_source = false;
      cacheable_kernels = false;
    }

  let plan = function
    | Multicore_p _ -> B.default_plan
    | _ -> B.wrong_payload id

  let emit _ _ = None

  let execute p (ctx : B.ctx) e =
    match p with
    | Multicore_p { domains; faults; checkpoint_every } ->
        let checkpoint =
          if checkpoint_every > 0 then
            Some (Runtime.Checkpoint.create ~cadence:checkpoint_every)
          else None
        in
        let v, t =
          Dmll_util.Timing.time (fun () ->
              Runtime.Exec_domains.run ?obs:ctx.B.tracer ~metrics:ctx.B.metrics
                ~domains ?faults ?checkpoint ~inputs:ctx.B.inputs e)
        in
        wall ~metrics:ctx.B.metrics v t
    | _ -> B.wrong_payload id
end

module Numa_backend : B.S = struct
  let id = "sim-numa"
  let describe = "modeled NUMA machine (socket-aware chunk placement)"

  let capabilities =
    { B.wall_clock = false;
      parallel = true;
      distributed = false;
      fault_injection = false;
      checkpointing = false;
      mem_budget = false;
      emits_source = false;
      cacheable_kernels = false;
    }

  let plan = function
    | Numa_p _ -> B.default_plan
    | _ -> B.wrong_payload id

  let emit _ _ = None

  let execute p (ctx : B.ctx) e =
    match p with
    | Numa_p config ->
        of_sim ~metrics:ctx.B.metrics
          (Runtime.Sim_numa.run ~config ~inputs:ctx.B.inputs e)
    | _ -> B.wrong_payload id
end

module Gpu_backend : B.S = struct
  let id = "sim-gpu"
  let describe = "modeled GPU (transfer + kernel model, CUDA emission)"

  let capabilities =
    { B.wall_clock = false;
      parallel = true;
      distributed = false;
      fault_injection = false;
      checkpointing = false;
      mem_budget = false;
      emits_source = true;
      cacheable_kernels = false;
    }

  let plan = function
    | Gpu_p opts ->
        if opts.Runtime.Sim_gpu.row_to_column then
          { B.default_plan with
            B.lower =
              (fun e ->
                let e', lowered = Bk.Gpu.lower e in
                (e', if lowered then [ "row-to-column" ] else []));
          }
        else B.default_plan
    | _ -> B.wrong_payload id

  let emit p e =
    match p with
    | Gpu_p _ -> Some (Bk.Codegen_cuda.emit e)
    | _ -> B.wrong_payload id

  let execute p (ctx : B.ctx) e =
    match p with
    | Gpu_p options ->
        let r = Runtime.Sim_gpu.run ~options ~inputs:ctx.B.inputs e in
        { B.value = r.Runtime.Sim_gpu.value;
          seconds = r.Runtime.Sim_gpu.kernel_seconds;
          wall_clock = false;
          breakdown = [];
          traffic = [];
          metrics = ctx.B.metrics;
        }
    | _ -> B.wrong_payload id
end

module Sim_cluster_backend : B.S = struct
  let id = "sim-cluster"
  let describe = "modeled cluster (partitioned data, broadcast/shuffle costs)"

  let capabilities =
    { B.wall_clock = false;
      parallel = true;
      distributed = true;
      fault_injection = true;
      checkpointing = true;
      mem_budget = true;
      emits_source = false;
      cacheable_kernels = false;
    }

  let plan = function
    | Sim_cluster_p { config; selector } ->
        let machine = config.Runtime.Sim_cluster.cluster in
        { B.fusion_objective =
            Some (fun e -> Analysis.Partition.predicted_volume ~machine e);
          machine = Some machine;
          wants_ilp = (selector = Analysis.Plan.Ilp);
          early_free = true;
          lower = identity_lower;
        }
    | _ -> B.wrong_payload id

  let emit _ _ = None

  let execute p (ctx : B.ctx) e =
    match p with
    | Sim_cluster_p { config; _ } ->
        let r = Runtime.Sim_cluster.run ~config ~inputs:ctx.B.inputs e in
        { (of_sim ~metrics:ctx.B.metrics r) with
          B.metrics = r.Runtime.Sim_common.metrics;
        }
    | _ -> B.wrong_payload id
end

module Proc_backend : B.S = struct
  let id = "proc-cluster"
  let describe = "real forked worker processes with supervision (§14)"

  let capabilities =
    { B.wall_clock = true;
      parallel = true;
      distributed = true;
      fault_injection = true;
      checkpointing = true;
      mem_budget = false;
      emits_source = false;
      cacheable_kernels = false;
    }

  let plan = function
    | Proc_p _ -> B.default_plan
    | _ -> B.wrong_payload id

  let emit _ _ = None

  let execute p (ctx : B.ctx) e =
    match p with
    | Proc_p config ->
        of_supervised ~traffic:[]
          (Runtime.Proc_cluster.run ~config ~inputs:ctx.B.inputs e)
    | _ -> B.wrong_payload id
end

module Net_backend : B.S = struct
  let id = "net-cluster"
  let describe = "TCP-attached worker processes, local or multi-host (§14.2)"

  let capabilities =
    { B.wall_clock = true;
      parallel = true;
      distributed = true;
      fault_injection = true;
      checkpointing = false;
      mem_budget = false;
      emits_source = false;
      cacheable_kernels = false;
    }

  let plan = function
    | Net_p _ -> B.default_plan
    | _ -> B.wrong_payload id

  let emit _ _ = None

  let execute p (ctx : B.ctx) e =
    match p with
    | Net_p config ->
        let r = Runtime.Net_cluster.run ~config ~inputs:ctx.B.inputs e in
        of_supervised r
          ~traffic:
            (Metrics.byte_counters r.Runtime.Net_cluster.metrics
            |> List.filter (fun (k, _) ->
                   String.length k >= 4 && String.sub k 0 4 = "net_"))
    | _ -> B.wrong_payload id
end

module Native_backend : B.S = struct
  let id = "native"

  let describe =
    "ocamlopt-compiled kernels, dynlinked in process, kernel-cached"

  let capabilities =
    { B.wall_clock = true;
      parallel = false;
      distributed = false;
      fault_injection = false;
      checkpointing = false;
      mem_budget = false;
      emits_source = true;
      cacheable_kernels = true;
    }

  let plan = function
    | Native_p _ -> B.default_plan
    | _ -> B.wrong_payload id

  let emit p e =
    match p with
    | Native_p _ ->
        Some (Bk.Codegen_ocaml.emit_kernel ~key:(Bk.Native.cache_key e) e)
    | _ -> B.wrong_payload id

  let execute p (ctx : B.ctx) e =
    match p with
    | Native_p cache ->
        let r =
          Bk.Native.Jit.run ~cache ~metrics:ctx.B.metrics ?tracer:ctx.B.tracer
            ~inputs:ctx.B.inputs e
        in
        wall ~metrics:ctx.B.metrics r.Bk.Native.value r.Bk.Native.seconds
    | _ -> B.wrong_payload id
end

(* ------------------------------------------------------------------ *)
(* Registration and resolution                                         *)
(* ------------------------------------------------------------------ *)

let registered : unit Lazy.t =
  lazy
    (List.iter Bk.Registry.register
       [ (module Closure_backend : B.S);
         (module Multicore_backend : B.S);
         (module Numa_backend : B.S);
         (module Gpu_backend : B.S);
         (module Sim_cluster_backend : B.S);
         (module Proc_backend : B.S);
         (module Net_backend : B.S);
         (module Native_backend : B.S);
       ])

(** Populate the registry with every built-in backend (idempotent).
    Anything that enumerates the registry ([dmllc --explain backends])
    must call this first; {!resolve} does so itself. *)
let ensure_registered () = Lazy.force registered

let id_of_target : Config.target -> string = function
  | Config.Sequential -> "closure"
  | Config.Multicore _ -> "multicore"
  | Config.Numa _ -> "sim-numa"
  | Config.Gpu _ -> "sim-gpu"
  | Config.Cluster _ -> "sim-cluster"
  | Config.Proc_cluster _ -> "proc-cluster"
  | Config.Net_cluster _ -> "net-cluster"
  | Config.Native -> "native"

(* Kernel caches, memoized per root so repeated resolves share one
   memory LRU (and the [None] root shares the process-wide cache). *)
let caches : (string, Bk.Kernel_cache.t) Hashtbl.t = Hashtbl.create 4
let caches_mutex = Mutex.create ()

let cache_for (root : string option) : Bk.Kernel_cache.t =
  match root with
  | None -> Lazy.force Bk.Kernel_cache.shared
  | Some root ->
      Mutex.lock caches_mutex;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock caches_mutex)
        (fun () ->
          match Hashtbl.find_opt caches root with
          | Some c -> c
          | None ->
              let c = Bk.Kernel_cache.create ~root () in
              Hashtbl.add caches root c;
              c)

let keep a b = match a with Some _ -> a | None -> b

(* The runtime knobs of [cfg] overlaid onto a target whose config left
   them unset. *)
let payload_of (cfg : Config.t) : B.payload =
  match cfg.Config.target with
  | Config.Sequential -> Closure_p
  | Config.Multicore domains ->
      Multicore_p
        { domains;
          faults = cfg.Config.faults;
          checkpoint_every = cfg.Config.checkpoint_every;
        }
  | Config.Numa config -> Numa_p config
  | Config.Gpu options -> Gpu_p options
  | Config.Cluster cc ->
      Sim_cluster_p
        { config =
            { cc with
              Runtime.Sim_cluster.faults =
                keep cc.Runtime.Sim_cluster.faults cfg.Config.faults;
              checkpoint_cadence =
                (if cc.Runtime.Sim_cluster.checkpoint_cadence > 0 then
                   cc.Runtime.Sim_cluster.checkpoint_cadence
                 else cfg.Config.checkpoint_every);
              mem_budget_gb =
                keep cc.Runtime.Sim_cluster.mem_budget_gb
                  cfg.Config.mem_budget_gb;
              obs = keep cc.Runtime.Sim_cluster.obs cfg.Config.tracer;
              metrics = keep cc.Runtime.Sim_cluster.metrics cfg.Config.metrics;
            };
          selector = cfg.Config.plan_selector;
        }
  | Config.Proc_cluster pc ->
      Proc_p
        { pc with
          Runtime.Proc_cluster.faults =
            keep pc.Runtime.Proc_cluster.faults cfg.Config.faults;
          checkpoint_cadence =
            (if pc.Runtime.Proc_cluster.checkpoint_cadence > 0 then
               pc.Runtime.Proc_cluster.checkpoint_cadence
             else cfg.Config.checkpoint_every);
          obs = keep pc.Runtime.Proc_cluster.obs cfg.Config.tracer;
          metrics = keep pc.Runtime.Proc_cluster.metrics cfg.Config.metrics;
        }
  | Config.Net_cluster nc ->
      Net_p
        { nc with
          Runtime.Net_cluster.faults =
            keep nc.Runtime.Net_cluster.faults cfg.Config.faults;
          obs = keep nc.Runtime.Net_cluster.obs cfg.Config.tracer;
          metrics = keep nc.Runtime.Net_cluster.metrics cfg.Config.metrics;
        }
  | Config.Native ->
      Native_p (cache_for cfg.Config.kernel_cache_dir)

(** The backend serving [cfg.target], with the payload [execute] will
    consume — [cfg]'s fault/checkpoint/memory knobs and observability
    sinks overlaid onto the target's own config. *)
let resolve (cfg : Config.t) : (module B.S) * B.payload =
  ensure_registered ();
  let id = id_of_target cfg.Config.target in
  match Bk.Registry.find id with
  | Some b -> (b, payload_of cfg)
  | None -> invalid_arg (Printf.sprintf "Backends.resolve: %s not registered" id)

(** The compile-time plan for a bare target under default knobs — what
    [lint] and other config-less consumers use. *)
let plan_of_target (t : Config.target) : B.plan =
  let (module Bx), payload =
    resolve { Config.default with Config.target = t }
  in
  Bx.plan payload
