(** TCP-backed cluster executor: multi-host workers, network fault
    injection, and self-healing membership (DESIGN.md §14).

    The TCP link of {!Supervisor}: the same supervision core as
    {!Proc_cluster}, with metrics under the [net_] prefix, but over real
    TCP connections.  Workers — forked locally or attached from other
    hosts by the [dmll_worker] binary ({!worker_main}) — dial the
    master, handshake with a protocol version and session token, and
    serve chunk programs over the shared length-prefixed CRC32
    {!Transport} codec.  Robustness: keepalive heartbeats with
    deadlines, bounded task retransmission on CRC-rejected frames,
    reconnect-and-resume within a grace window (in-flight chunks
    replayed from the retained chunk plan), {!Schedule.replan}-based
    recovery with budgeted replacement admission on permanent loss, and
    graceful degradation to master-inline evaluation past the budget.
    With faults armed, every outgoing frame draws a {!Fault.link_fate}
    (partition / sever / corrupt / delay) delivered for real on the
    live socket.

    Determinism contract: identical to {!Proc_cluster} — the chunk plan
    is a pure function of the loop size and the {e configured} worker
    count, so a faulted run merges the same chunk partials in the same
    order as a healthy run and produces a bit-identical value. *)

module V = Dmll_interp.Value
module M = Dmll_machine.Machine
module Span = Dmll_obs.Span
module Metrics = Dmll_obs.Metrics

(** {1 Wire protocol}

    Exposed so protocol-level tests (and future interop tools) can
    speak to a master without going through {!worker_main}. *)

val protocol_version : int

(** First frame on every new connection, worker → master.  [reconnect]
    carries the session id of a previous incarnation to resume. *)
type hello = { version : int; token : string; reconnect : int option }

type task = {
  task_id : int;
  loop_no : int;
  chunk : int;
  base_attempt : int;
  prog : Dmll_ir.Exp.exp;
  bindings : (string * V.t) list;
}

(** Master's handshake answer: join credentials plus the fault spec.
    An [Accepted] is followed by one more frame, the
    [(string * V.t) list] of the inputs the program reads; the master
    encodes it once per run and writes the same bytes to every joiner. *)
type welcome =
  | Accepted of {
      slot : int;
      wid : int;
      spec : M.fault_model option;
      heartbeat_s : float;
    }
  | Rejected of { reason : string }

type to_worker = Task of task | Ping of int | Shutdown

type from_worker =
  | Done of { task_id : int; chunk : int; value : V.t; retries : int }
  | Refused of { task_id : int; chunk : int; msg : string }
  | Pong of int
  | Bad_frame of { detail : string }
      (** the worker rejected a corrupt (CRC-failed) frame; the master
          retransmits the in-flight task within a resend budget *)

(** {1 Configuration} *)

type config = {
  workers : int;  (** slots (and the fixed chunk fan-out) *)
  listen : string option;
      (** [HOST:PORT] to bind; [None] binds loopback on an ephemeral
          port *)
  token : string option;
      (** session token required in every hello; [None] generates one
          with {!gen_token} *)
  spawn_local : bool;
      (** fork local worker processes that dial back in; [false] waits
          for external [dmll_worker] processes to attach *)
  faults : Fault.t option;
      (** arms worker-side chunk faults, master-side murder of local
          workers, {e and} per-frame link faults on every connection *)
  task_deadline_s : float;
  heartbeat_s : float;
      (** keepalive ping cadence on idle links; three missed pongs
          declare the link dead *)
  reconnect_grace_s : float;
      (** how long a dropped link's chunks are retained for its worker
          to redial and resume; [<= 0.] disables reconnection *)
  join_deadline_s : float;  (** how long {!run} waits for initial joins *)
  accept_deadline_s : float;
      (** a dialer must complete its hello within this long *)
  max_respawns : int;
      (** replacement-admission budget for the whole run *)
  worker_redials : int;
      (** reconnect attempts a locally forked worker makes per lost
          link *)
  obs : Span.t option;
  metrics : Metrics.t option;
  on_spawn : (slot:int -> pid:int -> unit) option;
  on_task_sent : (slot:int -> chunk:int -> unit) option;
      (** test hook, called right after a task frame is written and
          before its first reply can arrive *)
  on_listen : (addr:string -> unit) option;
      (** called once with the bound [HOST:PORT] before any worker is
          spawned — how tests and [dmll_run --listen] learn the
          ephemeral port *)
}

val default_config : config
(** 2 local workers on a loopback ephemeral port, 5 s task deadline,
    0.25 s heartbeat, 0.5 s reconnect grace, 8 respawns, 2 redials, no
    faults. *)

(** {1 Run statistics} — all observed from the master; the record both
    links share ({!Proc_cluster.stats}), whose checkpoint counters stay 0
    here. *)

type stats = Supervisor.stats = {
  mutable spawned : int;
  mutable respawned : int;
  mutable connects : int;  (** fresh sessions accepted *)
  mutable reconnects : int;  (** resumed sessions accepted *)
  mutable rejections : int;  (** hellos refused (version/token/slot/grace) *)
  mutable disconnects : int;  (** links lost into a grace window *)
  mutable grace_expired : int;
  mutable killed : int;
  mutable link_cuts : int;  (** injected master-side link severs *)
  mutable stopped : int;
  mutable deadline_kills : int;
  mutable heartbeat_kills : int;
  mutable frame_resends : int;  (** tasks retransmitted after [Bad_frame] *)
  mutable io_retries : int;
  mutable replans : int;
  mutable recovered_chunks : int;
  mutable master_chunks : int;
  mutable worker_retries : int;
  mutable pings : int;
  mutable pongs : int;
  mutable checkpoints : int;
  mutable restored_loops : int;
  mutable degraded : bool;
  mutable pids : int list;
}

val stats_to_string : stats -> string

type result = Supervisor.result = {
  value : V.t;
  seconds : float;
  breakdown : (string * float) list;
  stats : stats;
  metrics : Metrics.t;
}

(** {1 Entry points} *)

val run : ?config:config -> ?inputs:(string * V.t) list -> Dmll_ir.Exp.exp -> result
(** Execute a program with its outer multiloops distributed across
    TCP-attached workers.  Always terminates with every link closed,
    the listener closed, and every locally forked child reaped —
    including when the program itself raises — via a [Fun.protect]ed
    shutdown sweep. *)

val worker_main :
  ?redials:int ->
  ?dial_attempts:int ->
  ?dial_backoff_s:float ->
  addr:string ->
  token:string ->
  unit ->
  int
(** The dialing side — what [dmll_worker] and locally forked children
    run.  Dials [addr] with bounded exponential backoff, handshakes,
    serves chunk programs until shutdown, and redials with its session
    id (up to [redials] times) when the link drops.  Returns the
    process exit code: 0 orderly, 2 internal error, 4 never joined
    (exit code 3 — injected permanent crash — leaves via [Unix._exit]
    mid-task). *)

val gen_token : unit -> string
(** A fresh session token: 16 bytes from [/dev/urandom] as 32 hex
    characters. *)
