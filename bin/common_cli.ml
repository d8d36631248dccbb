(** Shared Cmdliner vocabulary of the dmll tools ([dmllc], [dmll_run]),
    built on {!Dmll.Config}: each tool assembles a run configuration from
    the environment ({!Dmll.Config.of_env}, the single [DMLL_*] reader)
    overridden by these flags, instead of duplicating flag definitions
    and env plumbing. *)

open Cmdliner
module Config = Dmll.Config
module Span = Dmll_obs.Span
module Metrics = Dmll_obs.Metrics
module M = Dmll_machine.Machine

(* ------------------------------------------------------------------ *)
(* Terms                                                               *)
(* ------------------------------------------------------------------ *)

let target_arg =
  Arg.(
    value
    & opt (enum [ ("seq", `Seq); ("multicore", `Multicore); ("numa", `Numa);
                  ("gpu", `Gpu); ("cluster", `Cluster); ("proc", `Proc);
                  ("net", `Net); ("native", `Native) ]) `Seq
    & info [ "t"; "target" ] ~docv:"TARGET"
        ~doc:
          "Execution target; $(b,dmllc --explain backends) lists what \
           each one can do.")

let procs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "procs" ] ~docv:"N"
        ~doc:
          "Run the outer loops on $(docv) real forked worker processes \
           (implies $(b,--target proc)).  Composes with $(b,--faults): \
           injected crashes become real SIGKILLs, stragglers real \
           SIGSTOPs, and some kills sever the worker's pipe; the \
           supervisor replans onto survivors and the value matches the \
           fault-free run bit-for-bit.")

let workers_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "workers" ] ~docv:"N"
        ~doc:
          "Worker count for the net target (implies $(b,--target net)): \
           $(docv) TCP-attached worker processes, forked locally unless \
           $(b,--listen) puts the master in multi-host mode.  Composes \
           with $(b,--faults): crashes, SIGSTOP straggling, link \
           partitions, mid-frame severs, and frame corruption are \
           delivered for real, and the recovered value matches the \
           fault-free run bit-for-bit.")

let listen_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "listen" ] ~docv:"HOST:PORT"
        ~doc:
          "Multi-host mode for the net target (implies $(b,--target \
           net)): bind $(docv) and wait for external $(b,dmll_worker) \
           processes to attach instead of forking local workers.  The \
           master prints the address and session token to hand to each \
           worker.")

let token_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "token" ] ~docv:"TOKEN"
        ~doc:
          "Session token net workers must present in their handshake \
           (default: generated per run and printed in $(b,--listen) \
           mode).")

let nodes_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "nodes" ] ~docv:"N"
        ~doc:
          "Cluster size in nodes: sizes the cluster target's machine \
           model, and the comm-volume predictions of $(b,--explain comm) \
           (default: the paper's 20-node EC2 preset).")

let faults_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "faults" ] ~docv:"SPEC"
        ~doc:
          "Inject deterministic faults and recover from them (multicore \
           and cluster targets).  SPEC is comma-separated key=value \
           pairs, e.g. \
           $(b,seed=42,crash=0.05,straggler=0.1,join=0.2,leave=0.1); keys: \
           seed, crash, transient, straggler, slow, drop, delay, delay_us, \
           retries, backoff_us, heartbeat_ms, join, leave, spares, \
           partition, sever, corrupt, link_delay, link_delay_ms.  An \
           unknown key is rejected with the list of valid keys.  Results \
           are identical to the fault-free run.  The $(b,DMLL_FAULTS) \
           environment variable supplies a default spec.")

let checkpoint_arg =
  Arg.(
    value & opt int 0
    & info [ "checkpoint-every" ] ~docv:"N"
        ~doc:
          "Snapshot the spine bindings every $(docv) outer loops \
           (checksummed; 0 disables).  On a crash the runtime prices \
           restore-from-checkpoint against lineage replay and takes the \
           cheaper path (multicore and cluster targets).")

let mem_budget_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "mem-budget" ] ~docv:"GB"
        ~doc:
          "Per-node memory budget in GB (cluster target).  Defaults to \
           the machine model's per-node memory.  Loops whose resident set \
           exceeds the budget spill to disk and see remote-read \
           backpressure — the clock slows, the values never change.")

let debug_arg =
  Arg.(
    value & flag
    & info [ "debug" ]
        ~doc:
          "Re-verify every optimizer stage and replanned chunk, and arm \
           the runtime validation contracts (C-COMM-OVERRUN, \
           O-SPAN-CLOCK).  $(b,DMLL_DEBUG=1) sets the default.")

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:"Emit machine-readable JSON where the command supports it.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record compile and runtime spans and write them to $(docv) as \
           Chrome trace_event JSON (open in chrome://tracing or Perfetto).")

let profile_arg =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:"Print a per-span-name self-time profile after the command.")

(* ------------------------------------------------------------------ *)
(* Config assembly                                                     *)
(* ------------------------------------------------------------------ *)

(** The environment config ({!Dmll.Config.of_env}) with the common flags
    applied on top, observability sinks armed.  A malformed [DMLL_FAULTS]
    or [--faults] spec exits with code 2. *)
let config ?(debug = false) ?faults ?(checkpoint_every = 0) ?mem_budget
    ?trace ?(profile = false) () : Config.t =
  let base =
    try Config.of_env ()
    with Invalid_argument msg ->
      Printf.eprintf "%s\n" msg;
      exit 2
  in
  let faults =
    match faults with
    | None -> base.Config.faults
    | Some s -> (
        match Dmll_runtime.Fault.parse s with
        | Ok spec -> Some (Dmll_runtime.Fault.create spec)
        | Error msg ->
            Printf.eprintf "bad --faults spec: %s\n" msg;
            exit 2)
  in
  Config.armed
    { base with
      Config.debug = base.Config.debug || debug;
      faults;
      checkpoint_every;
      mem_budget_gb = mem_budget;
      trace_file = trace;
      profile;
    }

(** The machine model a [--nodes] override selects. *)
let cluster_machine ?nodes () : M.cluster =
  match nodes with
  | Some n -> M.with_nodes n M.ec2_cluster
  | None -> M.ec2_cluster

(** Build a {!Dmll.target} from the
    [--target]/[--nodes]/[--procs]/[--workers]/[--listen]/[--token]
    flags.  The cluster, proc, and net targets carry only their
    size/address shape; fault, checkpoint, memory, and observability
    knobs flow in from the {!Config.t} at {!Dmll.execute} time.
    [--procs N] implies the proc target; [--workers N] and [--listen]
    imply the net target, [--listen] switching it to multi-host mode
    (external [dmll_worker] processes attach; the master prints the
    address and token they need). *)
let target_of ?nodes ?procs ?workers ?listen ?token
    (kind :
      [ `Seq | `Multicore | `Numa | `Gpu | `Cluster | `Proc | `Net | `Native ]) :
    Dmll.target =
  let proc_target () =
    let d = Dmll_runtime.Proc_cluster.default_config in
    Dmll.Proc_cluster
      { d with
        Dmll_runtime.Proc_cluster.workers =
          (match procs with
          | Some n -> n
          | None -> d.Dmll_runtime.Proc_cluster.workers);
      }
  in
  let net_target () =
    let d = Dmll_runtime.Net_cluster.default_config in
    let spawn_local = listen = None in
    let token =
      match token with
      | Some _ -> token
      | None when not spawn_local ->
          (* multi-host mode needs a token the user can hand to workers *)
          Some (Dmll_runtime.Net_cluster.gen_token ())
      | None -> None
    in
    let on_listen =
      if spawn_local then None
      else
        Some
          (fun ~addr ->
            Printf.printf
              "net: listening on %s\nnet: attach workers with: dmll_worker \
               --connect %s --token %s\n%!"
              addr addr
              (Option.value token ~default:""))
    in
    Dmll.Net_cluster
      { d with
        Dmll_runtime.Net_cluster.workers =
          (match workers with
          | Some n -> n
          | None -> d.Dmll_runtime.Net_cluster.workers);
        listen;
        token;
        spawn_local;
        on_listen;
      }
  in
  if procs <> None then proc_target ()
  else if workers <> None || listen <> None then net_target ()
  else
    match kind with
    | `Proc -> proc_target ()
    | `Net -> net_target ()
    | `Native -> Dmll.Native
    | `Seq -> Dmll.Sequential
  | `Multicore -> Dmll.Multicore 4
  | `Numa ->
      Dmll.Numa
        { Dmll_runtime.Sim_numa.machine = Dmll_machine.Machine.stanford_numa;
          threads = 48;
          mode = Dmll_runtime.Sim_numa.Numa_aware;
        }
  | `Gpu -> Dmll.Gpu { Dmll_runtime.Sim_gpu.transpose = true; row_to_column = true }
  | `Cluster ->
      Dmll.Cluster
        { Dmll_runtime.Sim_cluster.default_config with
          cluster = cluster_machine ?nodes ();
        }

(* ------------------------------------------------------------------ *)
(* Sinks                                                               *)
(* ------------------------------------------------------------------ *)

(** Flush the observability sinks the config armed: write the Chrome
    trace to [cfg.trace_file] and print the self-time profile when
    [cfg.profile] was requested. *)
let emit_observability (cfg : Config.t) : unit =
  match cfg.Config.tracer with
  | None -> ()
  | Some tr ->
      (match cfg.Config.trace_file with
      | Some file ->
          Span.write_chrome tr file;
          Printf.printf "trace: %d spans -> %s\n%!" (Span.span_count tr) file
      | None -> ());
      if cfg.Config.profile then print_string (Span.profile_to_string tr)

(** Print the run's metrics ledger, one line, when it counted anything. *)
let print_metrics (m : Metrics.t) : unit =
  if not (Metrics.is_empty m) then
    Printf.printf "metrics: %s\n" (Metrics.to_string m)
