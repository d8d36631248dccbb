(** Deterministic fault injection and recovery bookkeeping (DESIGN.md §9).

    A {!Dmll_machine.Machine.fault_model} describes a failure regime
    (crash rates, straggler slowdowns, lossy remote reads); {!create}
    turns it into an injector whose every decision is a pure function of
    the model's seed and the fault site's coordinates (multiloop number,
    node/chunk id, retry attempt) — never of wall-clock time or
    scheduling order, so a faulty run replays exactly.  The injector only
    decides {e when} to hurt and counts what happened; the executors
    recover by deterministic recomputation from lineage, which is why
    injected faults never change computed values.

    The event counters behind [stats_to_string] and the per-site draw
    function are internal. *)

module M = Dmll_machine.Machine

type spec = M.fault_model

(** Raised by an executor worker when the injector fails its current
    chunk: transient faults are retried with exponential backoff, a
    permanent fault kills the worker and leaves the chunk for lineage
    recovery. *)
exception Injected of { transient : bool; site : string }

type t
(** An injector: a spec plus domain-safe event counters. *)

val create : spec -> t
val spec : t -> spec

(** The fate of a cluster node for one multiloop — drawn fresh per loop,
    so a transient crash hurts one phase while a permanent one is the
    caller's to remember (the injector is stateless about topology). *)
type node_fate =
  | Healthy
  | Crashed of { permanent : bool }
  | Straggling of { slowdown : float }

val node_fate : t -> loop:int -> node:int -> node_fate

(** The fate of one chunk attempt on the domain executor. *)
type chunk_fate =
  | Chunk_ok
  | Chunk_fail of { transient : bool }
  | Chunk_slow of { slowdown : float }

val chunk_fate : t -> loop:int -> chunk:int -> attempt:int -> chunk_fate

val worker_seed : spec -> worker:int -> int
(** Seed-derivation rule for process-mode workers ([Proc_cluster]): the
    worker occupying slot [k] derives every local random decision
    (backoff jitter) from a SplitMix64 stream seeded with the first
    output of a SplitMix64 generator initialised with
    [(fault_seed * 0x3C6EF372) lxor (k + 1)].  The seed is a pure
    function of the fault seed and the {e slot} — not the pid and not
    the spawn order — so a respawned replacement for slot [k] resumes
    its predecessor's stream and [--faults seed=K] replays identically
    in process mode. *)

(** What the supervisor does to a process-mode worker right after
    dispatching one chunk to it — drawn once per (loop, chunk) on the
    first dispatch only, never on recovery re-dispatches.  [Proc_kill]
    either SIGKILLs the worker or (with [close_pipe]) severs the
    master's end of its link; [Proc_stop] SIGSTOPs it for [stop_s] seconds, and
    a shorter task deadline turns that into a hung-worker kill. *)
type proc_fate =
  | Proc_ok
  | Proc_kill of { permanent : bool; close_pipe : bool }
  | Proc_stop of { stop_s : float }

val proc_fate : t -> loop:int -> chunk:int -> proc_fate

(** What the fault-injecting transport wrapper does to one outgoing
    master→worker frame of either real-process link (DESIGN.md §16).
    [Link_partition] blackholes the link (sends dropped, inbound frames
    discarded) for ~3 heartbeat intervals; [Link_sever] cuts the
    connection mid-frame; [Link_corrupt] flips a payload byte after the
    CRC is computed so the receiver rejects the frame; [Link_delay]
    stalls the frame. *)
type link_fate =
  | Link_ok
  | Link_partition of { for_s : float }
  | Link_sever
  | Link_corrupt
  | Link_delay of { for_s : float }

val link_fate : t -> slot:int -> frame:int -> link_fate
(** Drawn per (slot, outgoing frame number) from the {!worker_seed}
    slot-seed stream — pure in (fault_seed, slot, frame), so a
    reconnected or respawned link for slot [k] continues its
    predecessor's fate sequence and a seeded chaos run replays. *)

val link_fault_count : t -> int
(** Injected link faults of any kind (partitions + severs + corrupts +
    delays). *)

(** Elastic-membership events for one loop (DESIGN.md §11). *)
type membership_event = Join of { node : int } | Leave of { node : int }

val membership_events :
  t -> loop:int -> alive:int list -> spares:int list -> membership_event list

(** The fate of one remote-read attempt. *)
type read_fate = Read_ok | Read_drop | Read_delay of { us : float }

val read_fate : t -> from_loc:int -> index:int -> attempt:int -> read_fate

val backoff_us : spec -> attempt:int -> float
(** Exponential retry backoff with deterministic jitter, microseconds. *)

val backoff_s : spec -> attempt:int -> float

(** Event recording — called by the executors as recovery happens. *)

val record_read_retry : t -> unit
val record_degraded : t -> unit
val record_recovered : t -> unit
val record_speculation : t -> unit
val record_replan : t -> unit
val record_restore : t -> unit
val record_replay : t -> unit
val record_checkpoint : t -> unit

val join_count : t -> int
val leave_count : t -> int
val restore_count : t -> int
val replay_count : t -> int
val checkpoint_count : t -> int

val total_injected : t -> int
(** All injected fault events (crashes + stragglers + read drops). *)

val stats_to_string : t -> string
(** One-line summary of everything injected and recovered. *)

(** Spec parsing/printing — the [--faults] / [DMLL_FAULTS] surface. *)

val valid_keys : string list

val pp_spec : Format.formatter -> spec -> unit
val to_string : spec -> string

val parse_spec : string -> (spec, Dmll_analysis.Diag.t) result
(** Parse a [key=value,...] spec; [Error] carries an [F-SPEC] diagnostic
    naming the bad key or value. *)

val parse : string -> (spec, string) result
(** [parse_spec] with the diagnostic flattened to a string. *)

val post_replan_check : (string -> Dmll_ir.Exp.exp -> unit) option ref
(** Debug hook mirroring [Dmll_opt.Pipeline.post_stage_check]: when armed
    (debug mode arms it with [Dmll.verify_stage]), the executors
    re-typecheck and re-verify the chunk program induced by every replan
    and lineage recovery before running it. *)

val check_replan : string -> Dmll_ir.Exp.exp -> unit
(** Run {!post_replan_check} if armed; no-op otherwise. *)
