(** Process-backed cluster executor: the pipe link of {!Supervisor}
    (DESIGN.md §14.1).  Forked workers inherit the program inputs
    copy-on-write and serve chunk programs over socketpairs; the
    supervisor detects dead, hung and wedged workers, replans their
    chunks onto survivors with {!Schedule.replan}, respawns within a
    budget, degrades to master-inline evaluation past it, and reaps
    every child it forked.  Metrics are counted under the [proc_]
    prefix.

    Determinism contract: a run under injected process murder is
    bit-identical to the healthy run; against the sequential
    interpreter, values are bit-identical for exact merges and within
    1e-6 relative for floating-point reductions. *)

module V = Dmll_interp.Value
module Span = Dmll_obs.Span
module Metrics = Dmll_obs.Metrics

type config = Supervisor.config = {
  workers : int;  (** forked worker processes (and the fixed chunk fan-out) *)
  faults : Fault.t option;
      (** arms worker-side injected chunk faults {e and} parent-side real
          process murder: SIGKILL, SIGSTOP straggling, pipe close *)
  task_deadline_s : float;
      (** a dispatched chunk unanswered for this long marks the worker
          hung: SIGKILL + replan *)
  heartbeat_s : float;
      (** ping cadence, at loop boundaries and on idle workers inside a
          loop; three missed pongs declare the worker dead *)
  max_respawns : int;  (** replacement-worker budget for the whole run *)
  checkpoint_cadence : int;  (** snapshot every N spine loops; [<=0] off *)
  checkpoint_dir : string option;
      (** where crash-safe snapshot files go ({!Checkpoint.write_file}) *)
  resume : bool;
      (** restore spine bindings from the latest verified snapshot in
          [checkpoint_dir] instead of recomputing them *)
  obs : Span.t option;
  metrics : Metrics.t option;
  on_spawn : (slot:int -> pid:int -> unit) option;
      (** test hook, called by the parent after every fork *)
  on_task_sent : (slot:int -> chunk:int -> unit) option;
      (** test hook, called right after a task frame is written to a
          worker and before its first reply can arrive — the window the
          heartbeat/deadline edge-case tests target *)
}

val default_config : config
(** 2 workers, 5 s task deadline, 0.25 s heartbeat, 8 respawns, no
    faults, no checkpointing. *)

(** Supervision counters for one run, all observed from the parent —
    the record both links share; the TCP-only counters stay 0 here. *)
type stats = Supervisor.stats = {
  mutable spawned : int;  (** every fork, initial and replacement *)
  mutable respawned : int;
  mutable connects : int;
  mutable reconnects : int;
  mutable rejections : int;
  mutable disconnects : int;
  mutable grace_expired : int;
  mutable killed : int;  (** injected murders (SIGKILL or pipe cut) *)
  mutable link_cuts : int;  (** injected pipe cuts *)
  mutable stopped : int;  (** injected SIGSTOP straggles *)
  mutable deadline_kills : int;
  mutable heartbeat_kills : int;
  mutable frame_resends : int;
  mutable io_retries : int;  (** transient I/O errors retried with backoff *)
  mutable replans : int;
  mutable recovered_chunks : int;  (** chunks redispatched after a death *)
  mutable master_chunks : int;  (** degraded-mode chunks evaluated inline *)
  mutable worker_retries : int;  (** worker-side transient-fault retries *)
  mutable pings : int;
  mutable pongs : int;
  mutable checkpoints : int;
  mutable restored_loops : int;
  mutable degraded : bool;  (** ran short-handed after budget exhaustion *)
  mutable pids : int list;  (** every child pid ever forked (for tests) *)
}

val stats_to_string : stats -> string

type result = Supervisor.result = {
  value : V.t;
  seconds : float;  (** wall-clock *)
  breakdown : (string * float) list;  (** per-spine-loop wall seconds *)
  stats : stats;
  metrics : Metrics.t;
}

val run : ?config:config -> ?inputs:(string * V.t) list -> Dmll_ir.Exp.exp -> result
(** Execute a program with its outer multiloops distributed across
    forked worker processes.  Always terminates with every child reaped
    and every pipe closed — including when the program itself raises —
    via a [Fun.protect]ed shutdown sweep over every pid ever forked. *)
