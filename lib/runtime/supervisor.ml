(** The supervision core of the real-process executors (DESIGN.md §14).

    {!Proc_cluster} and {!Net_cluster} are façades over this module that
    fix a {!link} and a metric prefix ([proc] / [net]); everything else —
    task evaluation, membership, liveness, dispatch, deadlines, replan,
    respawn and degrade, the [select] event loop, checkpoint/resume, and
    the reaping sweep — is written once, here.  The links differ in two
    ways only: how a slot gets connected (fork + socketpair with the
    inputs inherited, versus a dialing worker and a handshake that ships
    the inputs the program reads) and whether a lost link may redial
    (TCP gets a grace window; a cut pipe is a lost worker).

    Determinism contract: the chunk plan is a pure function of the loop
    size and the {e configured} worker count, so a faulty run merges the
    same chunk partials in the same order as a healthy run, and both
    links give bit-identical values at the same worker count. *)

open Dmll_ir
module V = Dmll_interp.Value
module M = Dmll_machine.Machine
module Span = Dmll_obs.Span
module Metrics = Dmll_obs.Metrics
module Prng = Dmll_util.Prng

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)
(* ------------------------------------------------------------------ *)

(* Field documentation: {!Proc_cluster.config}, which re-exports it. *)
type config = {
  workers : int;
  faults : Fault.t option;
  task_deadline_s : float;
  heartbeat_s : float;
  max_respawns : int;
  checkpoint_cadence : int;
  checkpoint_dir : string option;
  resume : bool;
  obs : Span.t option;
  metrics : Metrics.t option;
  on_spawn : (slot:int -> pid:int -> unit) option;
  on_task_sent : (slot:int -> chunk:int -> unit) option;
}

let default_config =
  { workers = 2;
    faults = None;
    task_deadline_s = 5.0;
    heartbeat_s = 0.25;
    max_respawns = 8;
    checkpoint_cadence = 0;
    checkpoint_dir = None;
    resume = false;
    obs = None;
    metrics = None;
    on_spawn = None;
    on_task_sent = None;
  }

(** A TCP link: the bound listener plus the membership knobs only a
    dialing worker has. *)
type tcp = {
  listen_fd : Unix.file_descr;
  addr : string;  (** the bound HOST:PORT workers dial *)
  token : string;  (** session token required in every hello *)
  spawn_local : bool;
      (** fork local dialers; [false] waits for external workers *)
  reconnect_grace_s : float;  (** [<= 0.] disables reconnection *)
  join_deadline_s : float;
  accept_deadline_s : float;
  worker_redials : int;
  on_listen : (addr:string -> unit) option;
}

type link =
  | Pipe  (** fork + socketpair; a cut pipe is a lost worker *)
  | Tcp of tcp  (** dial + handshake; a dropped link may redial *)

(* ------------------------------------------------------------------ *)
(* Run statistics                                                      *)
(* ------------------------------------------------------------------ *)

type stats = {
  mutable spawned : int;  (** local forks, initial and replacement *)
  mutable respawned : int;  (** replacement admissions against the budget *)
  mutable connects : int;  (** fresh TCP sessions accepted *)
  mutable reconnects : int;  (** resumed TCP sessions accepted *)
  mutable rejections : int;  (** hellos refused (version/token/slot/grace) *)
  mutable disconnects : int;  (** links lost into a grace window *)
  mutable grace_expired : int;  (** grace windows that ran out *)
  mutable killed : int;  (** injected murders (SIGKILL or link cut) *)
  mutable link_cuts : int;  (** injected master-side pipe/link severs *)
  mutable stopped : int;  (** injected SIGSTOP straggles *)
  mutable deadline_kills : int;
  mutable heartbeat_kills : int;
  mutable frame_resends : int;  (** tasks retransmitted after [Bad_frame] *)
  mutable io_retries : int;  (** transient I/O errors retried with backoff *)
  mutable replans : int;
  mutable recovered_chunks : int;  (** chunks redispatched after a loss *)
  mutable master_chunks : int;  (** degraded-mode chunks evaluated inline *)
  mutable worker_retries : int;  (** worker-side transient-fault retries *)
  mutable pings : int;
  mutable pongs : int;
  mutable checkpoints : int;
  mutable restored_loops : int;
  mutable degraded : bool;  (** ran short-handed after budget exhaustion *)
  mutable pids : int list;  (** every local child pid ever forked *)
}

let fresh_stats () =
  { spawned = 0; respawned = 0; connects = 0; reconnects = 0; rejections = 0;
    disconnects = 0; grace_expired = 0; killed = 0; link_cuts = 0;
    stopped = 0; deadline_kills = 0; heartbeat_kills = 0; frame_resends = 0;
    io_retries = 0; replans = 0; recovered_chunks = 0; master_chunks = 0;
    worker_retries = 0; pings = 0; pongs = 0; checkpoints = 0;
    restored_loops = 0; degraded = false; pids = [];
  }

(* Every counter under its metric name: the ones the supervisor also
   counts in the run's metrics ledger appear there as [<prefix>_<name>]. *)
let counters (s : stats) : (string * int) list =
  [ ("spawned", s.spawned); ("respawned", s.respawned);
    ("connects", s.connects); ("reconnects", s.reconnects);
    ("rejections", s.rejections); ("disconnects", s.disconnects);
    ("grace_expired", s.grace_expired); ("kills", s.killed);
    ("link_cuts", s.link_cuts); ("stops", s.stopped);
    ("deadline_kills", s.deadline_kills);
    ("heartbeat_kills", s.heartbeat_kills);
    ("frame_resends", s.frame_resends); ("io_retries", s.io_retries);
    ("replans", s.replans); ("recovered_chunks", s.recovered_chunks);
    ("master_chunks", s.master_chunks); ("worker_retries", s.worker_retries);
    ("pings", s.pings); ("pongs", s.pongs); ("checkpoints", s.checkpoints);
    ("restored_loops", s.restored_loops);
  ]

let stats_to_string (s : stats) : string =
  String.concat " "
    (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) (counters s)
    @ [ Printf.sprintf "degraded=%b" s.degraded ])

type result = {
  value : V.t;
  seconds : float;  (** wall-clock *)
  breakdown : (string * float) list;  (** per-spine-loop wall seconds *)
  stats : stats;
  metrics : Metrics.t;
}

(* ------------------------------------------------------------------ *)
(* Wire protocol                                                       *)
(* ------------------------------------------------------------------ *)

(* Frames are the shared length-prefixed + CRC32 codec of [Transport]. *)

let protocol_version = 2

(** First frame on every new TCP connection, worker → master.
    [reconnect] carries the session id of a previous incarnation. *)
type hello = { version : int; token : string; reconnect : int option }

(** The TCP link's input frame: the [(string * V.t) list] of the inputs
    named by an [Input] node of the program, framed once per run and
    written verbatim after every [Accepted].  A worker needs no other
    input: chunk programs are subterms of the program, and the spine
    values they close over travel in each task's bindings. *)
type shipment = {
  frame : bytes;
  shipped : int;  (** inputs in the frame *)
  total : int;  (** inputs the run was given *)
}

let shipment (program : Exp.exp) (inputs : (string * V.t) list) : shipment =
  let read =
    Exp.fold
      (fun acc e -> match e with Exp.Input (n, _, _) -> n :: acc | _ -> acc)
      [] program
  in
  let shipped = List.filter (fun (n, _) -> List.mem n read) inputs in
  { frame = Transport.encode_frame shipped;
    shipped = List.length shipped;
    total = List.length inputs;
  }

type task = {
  task_id : int;
  loop_no : int;
  chunk : int;
  base_attempt : int;
      (** offset into the chunk's injected-fate attempt sequence, bumped
          per dispatch so a redispatched chunk draws fresh fates *)
  prog : Exp.exp;  (** closed chunk program (pure data, marshalable) *)
  bindings : (string * V.t) list;  (** pseudo-input values for [prog] *)
}

(** Master's TCP handshake answer: the slot (which keys the
    deterministic fault streams), the session id (the reconnect
    credential), and the fault spec.  The input frame of {!shipment}
    follows an [Accepted]. *)
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

exception Worker_gone = Transport.Peer_gone
exception Frame_timeout = Transport.Frame_timeout

(* how many times one dispatched task is retransmitted on [Bad_frame]
   before the link is declared hostile and the slot retired *)
let resend_budget = 3

(* Bounded retry with exponential backoff on transient I/O errors —
   resource-pressure failures that clear on their own, as opposed to the
   peer-is-dead errors mapped to [Worker_gone]. *)
let io_retry_budget = 5

let with_io_retry (stats : stats) (f : unit -> 'a) : 'a =
  let rec go attempt =
    try f () with
    | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ENOBUFS), _, _)
      when attempt < io_retry_budget ->
        stats.io_retries <- stats.io_retries + 1;
        Unix.sleepf (1e-4 *. (2.0 ** float_of_int attempt));
        go (attempt + 1)
  in
  go 0

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()
let signal_quiet pid sg = try Unix.kill pid sg with Unix.Unix_error _ -> ()

let set_nodelay fd =
  try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ()

let sockaddr_of_string (addr : string) : Unix.sockaddr =
  match String.rindex_opt addr ':' with
  | None -> invalid_arg ("net address must be HOST:PORT: " ^ addr)
  | Some i ->
      let host = String.sub addr 0 i in
      let port =
        match int_of_string_opt (String.sub addr (i + 1) (String.length addr - i - 1))
        with
        | Some p when p >= 0 && p < 65536 -> p
        | _ -> invalid_arg ("bad port in net address: " ^ addr)
      in
      let ip =
        if host = "" then Unix.inet_addr_loopback
        else
          try Unix.inet_addr_of_string host
          with Failure _ -> (
            try (Unix.gethostbyname host).Unix.h_addr_list.(0)
            with Not_found | Invalid_argument _ ->
              invalid_arg ("unresolvable host in net address: " ^ host))
      in
      Unix.ADDR_INET (ip, port)

(* ------------------------------------------------------------------ *)
(* Worker side                                                         *)
(* ------------------------------------------------------------------ *)

(* Exit codes: 0 = orderly (Shutdown, master gone, redials spent after
   having served), 2 = internal error, 3 = injected permanent crash (the
   master recovers the chunk from lineage, exactly as it would for a
   machine that caught fire), 4 = a dialer that never managed to join. *)

(* Evaluate one chunk program, self-injuring by the chunk's injected
   fates: a transient failure retries (with jittered backoff) up to the
   spec's budget, so the retry count is the attempt number. *)
let eval_task ~(jitter : Prng.t) ~(inj : Fault.t option)
    ~(inputs : (string * V.t) list) (t : task) : from_worker =
  let run retries =
    match Dmll_backend.Closure.run ~inputs:(t.bindings @ inputs) t.prog with
    | v -> Done { task_id = t.task_id; chunk = t.chunk; value = v; retries }
    | exception e ->
        Refused { task_id = t.task_id; chunk = t.chunk; msg = Printexc.to_string e }
  in
  let rec attempt k =
    match inj with
    | None -> run k
    | Some f -> (
        let spec = Fault.spec f in
        match
          Fault.chunk_fate f ~loop:t.loop_no ~chunk:t.chunk
            ~attempt:(t.base_attempt + k)
        with
        | Fault.Chunk_fail { transient = true } when k < spec.M.max_retries ->
            Unix.sleepf
              (Float.min 2e-3
                 (Fault.backoff_s spec ~attempt:k *. (1.0 +. Prng.float jitter 0.5)));
            attempt (k + 1)
        | Fault.Chunk_fail _ ->
            (* a real crash: die mid-task, lineage recovers the chunk *)
            Unix._exit 3
        | Fault.Chunk_slow { slowdown } ->
            Unix.sleepf (Float.min 2e-3 (1e-4 *. slowdown));
            run k
        | Fault.Chunk_ok -> run k)
  in
  attempt 0

(* Serve the master's frames on [fd] until it says [Shutdown] or the link
   is lost.  A corrupt (CRC-failed) frame is answered with [Bad_frame] so
   the master retransmits.  The jitter stream is keyed by the slot (see
   [Fault.worker_seed]), so a replacement replays its predecessor's. *)
let serve ~(slot : int) ~(spec : M.fault_model option)
    ~(inputs : (string * V.t) list) (fd : Unix.file_descr) :
    [ `Lost | `Shutdown ] =
  let jitter =
    Prng.create
      (match spec with
      | Some s -> Fault.worker_seed s ~worker:slot
      | None -> slot + 1)
  in
  let inj = Option.map Fault.create spec in
  let rec go () =
    let reply (m : from_worker) =
      match Transport.write_frame fd m with
      | () -> go ()
      | exception Worker_gone -> `Lost
    in
    match (Transport.read_frame fd : to_worker) with
    | exception (Worker_gone | End_of_file) -> `Lost
    | exception Transport.Corrupt_frame d ->
        reply (Bad_frame { detail = Dmll_analysis.Diag.to_string d })
    | Shutdown -> `Shutdown
    | Ping k -> reply (Pong k)
    | Task t -> reply (eval_task ~jitter ~inj ~inputs t)
  in
  go ()

(* The TCP dialing side: runs in a locally forked child or in a
   standalone [dmll_worker] process on another host. *)
let worker_main ?(redials = 2) ?(dial_attempts = 25) ?(dial_backoff_s = 0.02)
    ~(addr : string) ~(token : string) () : int =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let sa = sockaddr_of_string addr in
  let rec dial k =
    let fd =
      Unix.socket ~cloexec:true (Unix.domain_of_sockaddr sa) Unix.SOCK_STREAM 0
    in
    match Unix.connect fd sa with
    | () ->
        set_nodelay fd;
        Some fd
    | exception Unix.Unix_error _ ->
        close_quiet fd;
        if k + 1 >= dial_attempts then None
        else begin
          (* bounded exponential backoff between dials *)
          Unix.sleepf
            (Float.min 0.5
               (dial_backoff_s *. (2.0 ** float_of_int (Stdlib.min k 5))));
          dial (k + 1)
        end
  in
  let rec session ~(reconnect : int option) ~(redials : int) : int =
    let never_joined = if reconnect = None then 4 else 0 in
    match dial 0 with
    | None -> never_joined
    | Some fd -> (
        match
          Transport.write_frame fd { version = protocol_version; token; reconnect };
          let deadline = Unix.gettimeofday () +. 5.0 in
          match (Transport.read_frame ~deadline fd : welcome) with
          | Rejected _ -> None
          | Accepted { slot; wid; spec; heartbeat_s = _ } ->
              let inputs : (string * V.t) list = Transport.read_frame ~deadline fd in
              Some (slot, wid, spec, inputs)
        with
        | exception _ ->
            close_quiet fd;
            never_joined
        | None ->
            (* the master refused us: it has already replanned whatever
               we held, so this exit is orderly *)
            close_quiet fd;
            never_joined
        | Some (slot, wid, spec, inputs) -> (
            let outcome = serve ~slot ~spec ~inputs fd in
            close_quiet fd;
            match outcome with
            | `Lost when redials > 0 ->
                Unix.sleepf dial_backoff_s;
                session ~reconnect:(Some wid) ~redials:(redials - 1)
            | `Lost | `Shutdown -> 0))
  in
  session ~reconnect:None ~redials

(* ------------------------------------------------------------------ *)
(* Membership                                                          *)
(* ------------------------------------------------------------------ *)

type worker = {
  slot : int;
  mutable wid : int;  (** current TCP session id; 0 = none *)
  mutable pid : int option;  (** locally forked process, when any *)
  mutable conn : Transport.conn option;
  mutable retired : bool;  (** permanently out (budget or permanent kill) *)
  mutable grace_until : float option;  (** open reconnect window *)
  mutable retained : int list;  (** chunks held for reconnect replay *)
  mutable task : (int * float) option;  (** in-flight chunk, abs deadline *)
  mutable queue : int list;  (** chunks waiting on this worker, this loop *)
  mutable last_task : task option;  (** for [Bad_frame] retransmission *)
  mutable resends_left : int;
  mutable fate_cursor : int;
      (** next link-fate frame index for this slot — survives reconnects
          and respawns, so a new link continues its predecessor's stream *)
  mutable missed : int;  (** keepalive pings sent without any reply *)
  mutable last_rx : float;
  mutable stopped_until : float option;  (** injected SIGSTOP, resume at *)
}

let fresh_worker (slot : int) : worker =
  { slot; wid = 0; pid = None; conn = None; retired = false;
    grace_until = None; retained = []; task = None; queue = [];
    last_task = None; resends_left = resend_budget; fate_cursor = 0;
    missed = 0; last_rx = 0.0; stopped_until = None;
  }

type pool = {
  cfg : config;
  link : link;
  prefix : string;  (** metric prefix, [proc] or [net] *)
  inputs : (string * V.t) list;  (** every input: spine, inline chunks, merge *)
  shipment : shipment Lazy.t;  (** TCP: encoded at the first join *)
  metrics : Metrics.t;
  stats : stats;
  members : worker array;  (** one entry per slot, fixed for the run *)
  mutable unreaped : int list;  (** forked pids not yet waitpid'ed *)
  mutable respawns_left : int;
  mutable next_wid : int;
  store : Checkpoint.t option;
}

(* Bump the run's [<prefix>_<name>] metric. *)
let count ?by (pool : pool) (name : string) : unit =
  Metrics.incr pool.metrics ?by (pool.prefix ^ "_" ^ name)

let heartbeat_kill (pool : pool) : unit =
  pool.stats.heartbeat_kills <- pool.stats.heartbeat_kills + 1;
  count pool "heartbeat_kills"

let deadline_kill (pool : pool) : unit =
  pool.stats.deadline_kills <- pool.stats.deadline_kills + 1;
  count pool "deadline_kills"

let connected (pool : pool) : worker list =
  Array.to_list pool.members |> List.filter (fun w -> w.conn <> None)

(* Does this link fork its own workers?  (External TCP workers attach.) *)
let local (pool : pool) : bool =
  match pool.link with Pipe -> true | Tcp t -> t.spawn_local

let instant (pool : pool) (name : string) ~(slot : int) : unit =
  match pool.cfg.obs with
  | None -> ()
  | Some tr ->
      Span.emit_now tr ~tid:Span.runtime_tid ~cat:pool.prefix
        ~name:(pool.prefix ^ "-" ^ name)
        ~args:[ ("slot", Span.Int slot) ]
        ~started_us:(Span.now_us tr) ()

(* Wrap a connected fd as the slot's link.  With faults armed every
   outgoing frame draws a link fate from the slot's stream. *)
let attach (pool : pool) (w : worker) (fd : Unix.file_descr) : unit =
  let fate =
    Option.map
      (fun inj ~frame:_ ->
        let k = w.fate_cursor in
        w.fate_cursor <- k + 1;
        Fault.link_fate inj ~slot:w.slot ~frame:k)
      pool.cfg.faults
  in
  w.conn <- Some (Transport.attach ?fate fd);
  w.last_rx <- Unix.gettimeofday ();
  w.missed <- 0;
  w.resends_left <- resend_budget

(* Credit traffic to slot [slot]'s link ledger and the aggregate one. *)
let ledger (pool : pool) ~(slot : int) ~(bytes_in : int) ~(bytes_out : int) :
    unit =
  let add name n = Metrics.add_bytes pool.metrics name (float_of_int n) in
  let link = Printf.sprintf "%s_link_%d" pool.prefix slot in
  add (link ^ "_bytes_out") bytes_out;
  add (link ^ "_bytes_in") bytes_in;
  add (pool.prefix ^ "_bytes_out") bytes_out;
  add (pool.prefix ^ "_bytes_in") bytes_in

(* Tear down a link, flushing its byte counters into per-link and
   aggregate metrics first so no traffic is lost to the teardown. *)
let drop_conn (pool : pool) (w : worker) : unit =
  match w.conn with
  | None -> ()
  | Some c ->
      ledger pool ~slot:w.slot ~bytes_in:(Transport.bytes_in c)
        ~bytes_out:(Transport.bytes_out c);
      let inj = Transport.injected_faults c in
      if inj > 0 then count pool ~by:inj "injected_link_faults";
      Transport.close c;
      w.conn <- None

let reap_blocking (pool : pool) (pid : int) : unit =
  let rec go () =
    match Unix.waitpid [] pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  go ();
  pool.unreaped <- List.filter (fun p -> p <> pid) pool.unreaped

let kill_pid (pool : pool) (w : worker) : unit =
  match w.pid with
  | None -> ()
  | Some pid ->
      signal_quiet pid Sys.sigcont;
      signal_quiet pid Sys.sigkill;
      reap_blocking pool pid;
      w.pid <- None

(* Fork a local worker for slot [w].  On a pipe link the child serves a
   socketpair end with the inputs it inherited, and the slot is connected
   on return; on a TCP link the child dials back into the listener and
   joins through the handshake.  Either child first drops every
   master-side fd, so it never holds a sibling's EOF detection open. *)
let spawn (pool : pool) (w : worker) : unit =
  let peer_fds =
    (match pool.link with Tcp t -> [ t.listen_fd ] | Pipe -> [])
    @ List.filter_map
        (fun m -> Option.map Transport.conn_fd m.conn)
        (Array.to_list pool.members)
  in
  let child, pair =
    match pool.link with
    | Tcp t ->
        ( (fun () ->
            worker_main ~redials:t.worker_redials ~addr:t.addr ~token:t.token ()),
          None )
    | Pipe ->
        let mine, theirs = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        ( (fun () ->
            close_quiet mine;
            let spec = Option.map Fault.spec pool.cfg.faults in
            ignore (serve ~slot:w.slot ~spec ~inputs:pool.inputs theirs);
            0),
          Some (mine, theirs) )
  in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      let code =
        try
          List.iter close_quiet peer_fds;
          child ()
        with _ -> 2
      in
      Unix._exit code
  | pid ->
      Option.iter
        (fun (mine, theirs) ->
          Unix.close theirs;
          attach pool w mine)
        pair;
      pool.stats.spawned <- pool.stats.spawned + 1;
      pool.stats.pids <- pid :: pool.stats.pids;
      pool.unreaped <- pid :: pool.unreaped;
      count pool "spawned";
      w.pid <- Some pid;
      Option.iter (fun f -> f ~slot:w.slot ~pid) pool.cfg.on_spawn

(* Budgeted replacement admission: fork a fresh local worker for the
   slot, or (external TCP workers) reopen it for the next dial.  Past
   the budget the slot is retired and the run is degraded. *)
let respawn_or_degrade (pool : pool) (w : worker) : unit =
  if pool.respawns_left > 0 then begin
    pool.respawns_left <- pool.respawns_left - 1;
    pool.stats.respawned <- pool.stats.respawned + 1;
    count pool "respawned";
    if local pool then spawn pool w
  end
  else begin
    w.retired <- true;
    pool.stats.degraded <- true
  end

(* Take the slot out (modulo replacement admission), returning the
   chunks it still held so the caller can replan them.  The session id
   is invalidated so a stale reconnect can never claim the replanned
   work back. *)
let retire_slot (pool : pool) (w : worker) ~(respawn : bool) : int list =
  drop_conn pool w;
  kill_pid pool w;
  let lost =
    (match w.task with Some (i, _) -> [ i ] | None -> []) @ w.queue @ w.retained
  in
  w.task <- None;
  w.queue <- [];
  w.retained <- [];
  w.last_task <- None;
  w.grace_until <- None;
  w.stopped_until <- None;
  w.missed <- 0;
  w.resends_left <- resend_budget;
  w.wid <- 0;
  if respawn then respawn_or_degrade pool w
  else begin
    w.retired <- true;
    pool.stats.degraded <- true
  end;
  lost

(* Link difference #2: only a TCP worker may redial into a lost slot. *)
let grace_s (pool : pool) : float =
  match pool.link with Tcp t -> t.reconnect_grace_s | Pipe -> 0.0

(* A lost link whose worker may come back: retain its in-flight and
   queued chunks for a reconnect to replay, and open the grace window. *)
let enter_grace (pool : pool) (w : worker) : unit =
  drop_conn pool w;
  w.retained <-
    w.retained @ (match w.task with Some (i, _) -> [ i ] | None -> []) @ w.queue;
  w.task <- None;
  w.queue <- [];
  w.missed <- 0;
  w.grace_until <- Some (Unix.gettimeofday () +. grace_s pool);
  pool.stats.disconnects <- pool.stats.disconnects + 1;
  count pool "disconnects"

(* Continue an injected straggler. *)
let resume (w : worker) ~(now : float) : unit =
  Option.iter (fun pid -> signal_quiet pid Sys.sigcont) w.pid;
  w.stopped_until <- None;
  w.last_rx <- now

(* A grace window ran out: the slot is lost after all.  Returns the
   chunks it retained. *)
let expire_grace (pool : pool) (w : worker) : int list =
  pool.stats.grace_expired <- pool.stats.grace_expired + 1;
  count pool "grace_expired";
  retire_slot pool w ~respawn:true

(* Guaranteed teardown: every link is closed (metrics flushed), the
   listener is closed, and every pid ever forked is continued, killed
   (idempotent on the already-dead), and waitpid'ed.  Runs under
   [Fun.protect], so it covers the master-error path too. *)
let shutdown (pool : pool) : unit =
  Array.iter
    (fun w ->
      match w.conn with
      | Some c ->
          (* orderly goodbye, injection-exempt like the handshake *)
          (try Transport.write_frame (Transport.conn_fd c) Shutdown
           with _ -> ());
          drop_conn pool w
      | None -> ())
    pool.members;
  (match pool.link with Tcp t -> close_quiet t.listen_fd | Pipe -> ());
  List.iter
    (fun pid ->
      signal_quiet pid Sys.sigcont;
      signal_quiet pid Sys.sigkill;
      reap_blocking pool pid)
    pool.unreaped

(* ------------------------------------------------------------------ *)
(* TCP handshake                                                       *)
(* ------------------------------------------------------------------ *)

(* Accept one pending dial and run its handshake synchronously.
   Returns the (re)joined worker so an in-loop caller can dispatch it.
   The accepted socket is guarded by [Fun.protect]: every rejection and
   every handshake error closes it. *)
let accept_one (pool : pool) (t : tcp) : worker option =
  match Unix.accept ~cloexec:true t.listen_fd with
  | exception
      Unix.Unix_error
        ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR | Unix.ECONNABORTED), _, _)
    ->
      None
  | fd, _peer ->
      (try Unix.clear_nonblock fd with Unix.Unix_error _ -> ());
      set_nodelay fd;
      let joined = ref None in
      Fun.protect
        ~finally:(fun () -> if Option.is_none !joined then close_quiet fd)
        (fun () ->
          let now = Unix.gettimeofday () in
          let s = pool.stats in
          let reject reason =
            s.rejections <- s.rejections + 1;
            count pool "rejections";
            try Transport.write_frame fd (Rejected { reason }) with _ -> ()
          in
          (* the handshake itself is injection-exempt: faults model the
             data plane, and an unjoinable cluster would just test the
             dial loop *)
          let join w ~resumed ~hello_bytes =
            let shipment = Lazy.force pool.shipment in
            let welcome =
              Transport.encode_frame
                (Accepted
                   { slot = w.slot; wid = w.wid;
                     spec = Option.map Fault.spec pool.cfg.faults;
                     heartbeat_s = pool.cfg.heartbeat_s })
            in
            let bytes_out = Bytes.length welcome + Bytes.length shipment.frame in
            match
              Span.with_span ?tracer:pool.cfg.obs ~tid:Span.runtime_tid
                ~cat:pool.prefix
                ~args:
                  [ ("slot", Span.Int w.slot); ("bytes", Span.Int bytes_out);
                    ("inputs_shipped", Span.Int shipment.shipped);
                    ("inputs_total", Span.Int shipment.total) ]
                (pool.prefix ^ "-welcome")
                (fun () ->
                  Transport.write_encoded fd welcome;
                  Transport.write_encoded fd shipment.frame)
            with
            | exception _ -> ()
            | () ->
                attach pool w fd;
                ledger pool ~slot:w.slot ~bytes_in:hello_bytes ~bytes_out;
                if resumed then begin
                  (* resume: replay the retained chunk plan *)
                  w.queue <- w.retained;
                  w.retained <- [];
                  w.grace_until <- None;
                  s.reconnects <- s.reconnects + 1
                end
                else s.connects <- s.connects + 1;
                let event = if resumed then "reconnect" else "connect" in
                count pool (event ^ "s");
                instant pool event ~slot:w.slot;
                joined := Some w
          in
          (match
             (Transport.read_frame_sized ~deadline:(now +. t.accept_deadline_s) fd
               : hello * int)
           with
          | exception
              (Worker_gone | Frame_timeout | Transport.Corrupt_frame _) ->
              reject "malformed hello"
          | h, _ when h.version <> protocol_version ->
              reject
                (Printf.sprintf "protocol version mismatch: got %d, want %d"
                   h.version protocol_version)
          | h, _ when h.token <> t.token -> reject "bad session token"
          | { reconnect = Some wid; _ }, hello_bytes -> (
              match
                Array.find_opt
                  (fun w -> w.wid = wid && wid <> 0 && not w.retired)
                  pool.members
              with
              | None -> reject "unknown session"
              | Some { grace_until = Some until; _ } when now > until ->
                  (* refused; the in-loop grace sweep retires the slot
                     and replans its chunks *)
                  reject "grace window expired"
              | Some w ->
                  (* a still-open old link is superseded: it is lost, and
                     its window covers a failed welcome *)
                  if w.conn <> None then enter_grace pool w;
                  join w ~resumed:true ~hello_bytes)
          | { reconnect = None; _ }, hello_bytes -> (
              match
                Array.find_opt
                  (fun w -> w.conn = None && w.grace_until = None && not w.retired)
                  pool.members
              with
              | None -> reject "no free slot"
              | Some w ->
                  w.wid <- pool.next_wid;
                  pool.next_wid <- pool.next_wid + 1;
                  join w ~resumed:false ~hello_bytes));
          !joined)

(* Accept a dial if one arrives within [timeout]; [false] when none did. *)
let accept_pending (pool : pool) (t : tcp) ~(timeout : float) : bool =
  match Unix.select [ t.listen_fd ] [] [] timeout with
  | [], _, _ -> false
  | _ ->
      ignore (accept_one pool t);
      true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> false

(* Wait for the initial membership: every slot connected, or the join
   deadline.  Slots that never joined are retired up front (degraded
   short-handed start) so the first plan reflects reality. *)
let join_gate (pool : pool) (t : tcp) : unit =
  let deadline = Unix.gettimeofday () +. t.join_deadline_s in
  let waiting () =
    Array.exists (fun w -> w.conn = None && not w.retired) pool.members
  in
  let rec go () =
    let left = deadline -. Unix.gettimeofday () in
    if waiting () && left > 0.0 then begin
      ignore (accept_pending pool t ~timeout:(Float.min 0.05 left));
      go ()
    end
  in
  go ();
  Array.iter
    (fun w ->
      if w.conn = None && not w.retired then
        ignore (retire_slot pool w ~respawn:false))
    pool.members

(* ------------------------------------------------------------------ *)
(* Loop-boundary liveness gate                                         *)
(* ------------------------------------------------------------------ *)

(* Before planning each distributed loop: resume injected stragglers,
   sweep expired grace windows (nothing is retained between loops, so no
   replan is needed here), let pending dials join, then ping every link
   and wait [heartbeat_s] per round for pongs; three unanswered rounds
   declare the worker wedged (it is retired and replaced within budget).
   Healthy workers answer in microseconds, so the gate costs one round
   trip. *)
let liveness_gate (pool : pool) ~(loop_no : int) : unit =
  let now = Unix.gettimeofday () in
  let wedged w =
    heartbeat_kill pool;
    ignore (retire_slot pool w ~respawn:true)
  in
  Array.iter
    (fun w ->
      if w.stopped_until <> None then resume w ~now;
      match w.grace_until with
      | Some t when now >= t -> ignore (expire_grace pool w)
      | _ -> ())
    pool.members;
  (match pool.link with
  | Tcp t -> while accept_pending pool t ~timeout:0.0 do () done
  | Pipe -> ());
  let conn_of w = Option.get w.conn in
  let fd_of w = Transport.conn_fd (conn_of w) in
  (* each round pings the suspects and keeps those still silent when
     [heartbeat_s] runs out; a dead link is wedged at once *)
  let rec rounds round suspects =
    if round > 3 then List.iter wedged suspects
    else if suspects <> [] then begin
      let token = (loop_no * 101) + round in
      let pinged =
        List.filter
          (fun w ->
            match
              with_io_retry pool.stats (fun () ->
                  Transport.send (conn_of w) (Ping token))
            with
            | () ->
                pool.stats.pings <- pool.stats.pings + 1;
                true
            | exception (Worker_gone | Unix.Unix_error _) ->
                wedged w;
                false)
          suspects
      in
      let deadline = Unix.gettimeofday () +. pool.cfg.heartbeat_s in
      let rec collect silent =
        let left = deadline -. Unix.gettimeofday () in
        if silent = [] || left <= 0.0 then silent
        else
          match Unix.select (List.map fd_of silent) [] [] left with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> collect silent
          | readable, _, _ ->
              collect
                (List.filter
                   (fun w ->
                     (not (List.mem (fd_of w) readable))
                     ||
                     match (Transport.recv ~deadline (conn_of w) : from_worker) with
                     | Pong _ ->
                         pool.stats.pongs <- pool.stats.pongs + 1;
                         w.last_rx <- Unix.gettimeofday ();
                         w.missed <- 0;
                         false
                     | _ -> true
                     | exception
                         (Worker_gone | Frame_timeout | Transport.Corrupt_frame _)
                       ->
                         wedged w;
                         false)
                   silent)
      in
      rounds (round + 1) (collect pinged)
    end
  in
  rounds 1 (connected pool)

(* ------------------------------------------------------------------ *)
(* Supervised loop execution                                           *)
(* ------------------------------------------------------------------ *)

(* Run one distributed loop's chunk programs to completion across the
   pool, recovering every loss, and return the chunk values in chunk
   order.  [units] is the chunk plan, sorted by range start. *)
let distribute (pool : pool) ~(loop_no : int)
    (units : Schedule.unit_of_work array)
    (progs : (Exp.exp * (string * V.t) list) array) : V.t array =
  let cfg = pool.cfg and stats = pool.stats in
  let nchunks = Array.length units in
  (* the original cut points: every replanned range is exactly a chunk *)
  let boundaries =
    Array.to_list units
    |> List.filter_map (fun (u : Schedule.unit_of_work) ->
           if u.range.Chunk.lo > 0 then Some u.range.Chunk.lo else None)
  in
  let idx_of_lo = Hashtbl.create nchunks in
  Array.iteri
    (fun i (u : Schedule.unit_of_work) ->
      Hashtbl.replace idx_of_lo u.range.Chunk.lo i)
    units;
  let results : V.t option array = Array.make nchunks None in
  let remaining = ref nchunks in
  let dispatches = Array.make nchunks 0 in
  let fate_drawn = Array.make nchunks false in
  let owner = Array.make nchunks (-1) in
  let master_backlog = ref [] in
  let to_master i = master_backlog := !master_backlog @ [ i ] in
  let task_counter = ref 0 in
  let record_result i v =
    if results.(i) = None then begin
      results.(i) <- Some v;
      decr remaining
    end
  in
  let eval_inline i =
    if results.(i) = None then begin
      let prog, bindings = progs.(i) in
      Fault.check_replan (pool.prefix ^ "-master") prog;
      stats.master_chunks <- stats.master_chunks + 1;
      count pool "master_chunks";
      record_result i
        (Dmll_backend.Closure.run ~inputs:(bindings @ pool.inputs) prog)
    end
  in
  let enqueue (w : worker) i =
    owner.(i) <- w.slot;
    w.queue <- w.queue @ [ i ]
  in
  (* queue each planned unit accepted by [keep] on its node's worker, or
     on the master when that node is not live *)
  let assign live (planned : Schedule.unit_of_work list) ~(keep : int -> bool)
      =
    List.iter
      (fun (u : Schedule.unit_of_work) ->
        match Hashtbl.find_opt idx_of_lo u.range.Chunk.lo with
        | Some i when keep i -> (
            match List.find_opt (fun w -> w.slot = u.node) live with
            | Some w -> enqueue w i
            | None -> to_master i)
        | _ -> ())
      planned
  in
  (* Place [chunks] on the live workers along [Schedule.replan] of
     [planned] with [dead] slots removed — round-robin when no planned
     owner survives, on the master when nobody is live. *)
  let place ~(dead : int list) (planned : Schedule.unit_of_work list)
      (chunks : int list) =
    match connected pool with
    | [] -> List.iter to_master chunks
    | live -> (
        match Schedule.replan ~boundaries ~dead planned with
        | replanned -> assign live replanned ~keep:(fun i -> List.mem i chunks)
        | exception Invalid_argument _ ->
            let nl = List.length live in
            List.iteri (fun j i -> enqueue (List.nth live (j mod nl)) i) chunks)
  in
  (* Reassign [lost] chunks after slot [dead_slot]'s demise, replanning
     the not-yet-done units with their current owners. *)
  let replan_lost ~(dead_slot : int) (lost : int list) : unit =
    let lost = List.filter (fun i -> results.(i) = None) lost in
    if lost <> [] then
      Span.with_span ?tracer:cfg.obs ~tid:Span.runtime_tid ~cat:pool.prefix
        ~args:
          [ ("slot", Span.Int dead_slot); ("chunks", Span.Int (List.length lost)) ]
        (pool.prefix ^ "-replan")
        (fun () ->
          stats.replans <- stats.replans + 1;
          count pool "replans";
          Option.iter Fault.record_replan cfg.faults;
          let undone =
            List.filter_map
              (fun i ->
                if results.(i) = None && owner.(i) >= 0 then
                  Some { (units.(i)) with Schedule.node = owner.(i) }
                else None)
              (List.init nchunks Fun.id)
          in
          place ~dead:[ dead_slot ] undone lost;
          List.iter
            (fun i ->
              Fault.check_replan (pool.prefix ^ "-replan") (fst progs.(i));
              stats.recovered_chunks <- stats.recovered_chunks + 1;
              count pool "recovered_chunks";
              Option.iter Fault.record_recovered cfg.faults)
            lost)
  in
  let send_task w c (t : task) =
    with_io_retry stats (fun () -> Transport.send c (Task t));
    w.task <- Some (t.chunk, Unix.gettimeofday () +. cfg.task_deadline_s)
  in
  let rec dispatch (w : worker) : unit =
    match (w.conn, w.queue) with
    | Some c, i :: rest when w.task = None && w.stopped_until = None ->
        w.queue <- rest;
        if results.(i) <> None then dispatch w
        else begin
          let prog, bindings = progs.(i) in
          incr task_counter;
          let t =
            { task_id = !task_counter; loop_no; chunk = i;
              base_attempt = dispatches.(i) * 64; prog; bindings }
          in
          dispatches.(i) <- dispatches.(i) + 1;
          count pool "tasks";
          match send_task w c t with
          | exception Worker_gone -> lose ~grace:true ~requeue:[ i ] w
          | () -> (
              w.last_task <- Some t;
              w.resends_left <- resend_budget;
              Option.iter (fun f -> f ~slot:w.slot ~chunk:i) cfg.on_task_sent;
              (* master-side murder of local workers: drawn once per
                 (loop, chunk), on first dispatch only *)
              match cfg.faults with
              | Some f when (not fate_drawn.(i)) && w.pid <> None -> (
                  fate_drawn.(i) <- true;
                  match Fault.proc_fate f ~loop:loop_no ~chunk:i with
                  | Fault.Proc_ok -> ()
                  | Fault.Proc_kill { permanent; close_pipe } ->
                      stats.killed <- stats.killed + 1;
                      count pool "kills";
                      if close_pipe then begin
                        (* cut the link only: a TCP worker redials into
                           its grace window, a cut pipe is a loss *)
                        stats.link_cuts <- stats.link_cuts + 1;
                        count pool "link_cuts";
                        lose ~grace:true ~respawn:(not permanent) w
                      end
                      else begin
                        Option.iter (fun pid -> signal_quiet pid Sys.sigkill) w.pid;
                        lose ~grace:false ~respawn:(not permanent) w
                      end
                  | Fault.Proc_stop { stop_s } ->
                      stats.stopped <- stats.stopped + 1;
                      count pool "stops";
                      Option.iter (fun pid -> signal_quiet pid Sys.sigstop) w.pid;
                      w.stopped_until <- Some (Unix.gettimeofday () +. stop_s))
              | _ -> ())
        end
    | _ -> ()
  and lose ?(requeue = []) ?(respawn = true) ~(grace : bool) (w : worker) :
      unit =
    if grace && grace_s pool > 0.0 then begin
      enter_grace pool w;
      w.retained <- requeue @ w.retained
    end
    else begin
      replan_lost ~dead_slot:w.slot (requeue @ retire_slot pool w ~respawn);
      List.iter dispatch (connected pool)
    end
  in
  let heard (w : worker) =
    w.last_rx <- Unix.gettimeofday ();
    w.missed <- 0
  in
  let handle_read (w : worker) (c : Transport.conn) : unit =
    let now = Unix.gettimeofday () in
    let deadline =
      (* a partitioned link discards inbound frames; poll it briefly
         instead of stalling the event loop *)
      if Transport.partitioned c then now +. 0.005 else now +. cfg.task_deadline_s
    in
    match (Transport.recv ~deadline c : from_worker) with
    | (Done _ | Refused _) as reply ->
        heard w;
        w.task <- None;
        w.last_task <- None;
        (match reply with
        | Done { chunk; value; retries; _ } ->
            stats.worker_retries <- stats.worker_retries + retries;
            if retries > 0 then count pool ~by:retries "worker_retries";
            record_result chunk value
        | Refused { chunk; _ } ->
            (* deterministic evaluation error: recompute inline so the
               real exception surfaces from the master *)
            count pool "refused";
            to_master chunk
        | _ -> ());
        dispatch w
    | Pong _ ->
        heard w;
        stats.pongs <- stats.pongs + 1
    | Bad_frame _ -> (
        heard w;
        match (w.task, w.last_task) with
        | Some (i, _), Some t when t.chunk = i ->
            if w.resends_left > 0 then begin
              w.resends_left <- w.resends_left - 1;
              stats.frame_resends <- stats.frame_resends + 1;
              count pool "frame_resends";
              instant pool "resend" ~slot:w.slot;
              let attempt = resend_budget - w.resends_left in
              let backoff =
                match cfg.faults with
                | Some f -> Fault.backoff_s (Fault.spec f) ~attempt
                | None -> 1e-4 *. (2.0 ** float_of_int attempt)
              in
              Unix.sleepf (Float.min 2e-3 backoff);
              try send_task w c t with Worker_gone -> lose ~grace:true w
            end
            else
              (* the link keeps mangling frames: hostile *)
              lose ~grace:false w
        | _ -> ())
    | exception Frame_timeout when Transport.partitioned c ->
        (* blackholed: the deadline/keepalive sweeps recover *)
        ()
    | exception Worker_gone -> lose ~grace:true w
    | exception Transport.Corrupt_frame _ ->
        count pool "corrupt_frames";
        lose ~grace:false w
    | exception Frame_timeout ->
        deadline_kill pool;
        lose ~grace:false w
  in
  (* in-loop keepalive: an idle link is pinged every [heartbeat_s] of
     silence; three unanswered pings retire it *)
  let keepalive_due w = w.last_rx +. (cfg.heartbeat_s *. float_of_int (w.missed + 1)) in
  let keepalive now =
    Array.iter
      (fun w ->
        match w.conn with
        | Some c when w.task = None && w.stopped_until = None && now >= keepalive_due w ->
            if w.missed >= 3 then begin
              heartbeat_kill pool;
              lose ~grace:false w
            end
            else (
              match
                with_io_retry stats (fun () ->
                    Transport.send c (Ping ((loop_no * 1000) + w.missed)))
              with
              | () ->
                  stats.pings <- stats.pings + 1;
                  w.missed <- w.missed + 1
              | exception Worker_gone -> lose ~grace:true w)
        | _ -> ())
      pool.members
  in
  (* initial assignment: the planned owner when that slot is connected,
     else replanned onto survivors before anything is dispatched *)
  let dead0 =
    List.filter_map
      (fun w -> if w.conn = None then Some w.slot else None)
      (Array.to_list pool.members)
  in
  place ~dead:dead0 (Array.to_list units) (List.init nchunks Fun.id);
  List.iter dispatch (connected pool);
  (* the supervision event loop *)
  while !remaining > 0 do
    (* the master chips in on orphaned work first — it is the driver,
       immune to injection, and the guarantee of progress *)
    (match !master_backlog with
    | i :: rest ->
        master_backlog := rest;
        eval_inline i
    | [] -> ());
    if !remaining > 0 then begin
      let now = Unix.gettimeofday () in
      Array.iter
        (fun w ->
          (* resume injected stragglers whose stop expired *)
          (match w.stopped_until with
          | Some t when now >= t ->
              resume w ~now;
              dispatch w
          | _ -> ());
          match w.grace_until with
          | Some t when now >= t ->
              replan_lost ~dead_slot:w.slot (expire_grace pool w);
              List.iter dispatch (connected pool)
          | _ -> ())
        pool.members;
      (* deadline detection: a dispatched chunk unanswered past its
         deadline marks the worker hung (stopped or genuinely wedged) *)
      Array.iter
        (fun w ->
          match w.task with
          | Some (_, dl) when now > dl ->
              deadline_kill pool;
              lose ~grace:false w
          | _ -> ())
        pool.members;
      keepalive now;
      (* safety net: any undone chunk not covered by the backlog, a live
         queue/task, or a grace window's retained plan goes to the
         master *)
      let covered i =
        List.mem i !master_backlog
        || Array.exists
             (fun w ->
               List.mem i w.queue || List.mem i w.retained
               || match w.task with Some (j, _) -> j = i | None -> false)
             pool.members
      in
      Array.iteri (fun i r -> if r = None && not (covered i) then to_master i) results;
      if !remaining > 0 && !master_backlog = [] then begin
        let timer =
          Array.fold_left
            (fun acc w ->
              let acc =
                List.fold_left
                  (fun acc -> function Some t -> Float.min acc t | None -> acc)
                  acc
                  [ Option.map snd w.task; w.stopped_until; w.grace_until ]
              in
              if w.conn <> None && w.task = None && w.stopped_until = None then
                Float.min acc (keepalive_due w)
              else acc)
            (now +. 0.05) pool.members
        in
        (* links as of the select: a handler may retire a slot, and a new
           link reusing its fd number must not be read as ready *)
        let links = List.map (fun w -> (w, Option.get w.conn)) (connected pool) in
        let listen = match pool.link with Tcp t -> [ t.listen_fd ] | Pipe -> [] in
        let fds = listen @ List.map (fun (_, c) -> Transport.conn_fd c) links in
        match Unix.select fds [] [] (Float.max 1e-3 (timer -. now)) with
        | readable, _, _ ->
            (match pool.link with
            | Tcp t when List.mem t.listen_fd readable ->
                Option.iter dispatch (accept_one pool t)
            | _ -> ());
            List.iter
              (fun (w, c) ->
                let current = match w.conn with Some c' -> c' == c | None -> false in
                if current && List.mem (Transport.conn_fd c) readable then
                  handle_read w c)
              links
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      end
    end
  done;
  (* chunk ids are loop-local: clear every per-loop holding *)
  Array.iter
    (fun w ->
      w.task <- None;
      w.queue <- [];
      w.retained <- [];
      w.last_task <- None)
    pool.members;
  Array.map Option.get results

let run_loop (pool : pool) (env : Evalenv.env) ~(loop_no : int) (l : Exp.loop)
    : V.t =
  let inputs = pool.inputs in
  let n = Evalenv.eval_int ~inputs env l.Exp.size in
  let master_eval () = Evalenv.eval ~inputs env (Exp.Loop l) in
  liveness_gate pool ~loop_no;
  let nobody =
    connected pool = []
    && not (Array.exists (fun w -> w.grace_until <> None) pool.members)
  in
  (* The plan is a pure function of (n, configured workers): chunk
     boundaries — and hence merge order and float reassociation — are
     identical whether the pool is healthy, bleeding, or degraded. *)
  let units =
    if n <= 1 || nobody then [||]
    else
      Schedule.plan ~nodes:pool.cfg.workers ~sockets:1 ~cores:1 n
      |> List.sort (fun (a : Schedule.unit_of_work) b ->
             compare a.range.Chunk.lo b.range.Chunk.lo)
      |> Array.of_list
  in
  if Array.length units <= 1 then master_eval ()
  else
    let progs =
      Array.map
        (fun (u : Schedule.unit_of_work) ->
          Evalenv.close_over env (Exec_domains.chunk_loop l u.range))
        units
    in
    if
      Array.exists
        (fun (p, _) -> Sym.Set.choose_opt (Exp.free_vars p) <> None)
        progs
    then
      (* an unclosable chunk (free symbol outside the spine env):
         evaluate on the master so the error surfaces identically *)
      master_eval ()
    else
      let values = distribute pool ~loop_no units progs in
      Exec_domains.merge_parts ~env ~inputs l ~nchunks:(Array.length units)
        (Array.to_list (Array.mapi (fun i v -> (i, v)) values))

(* ------------------------------------------------------------------ *)
(* Checkpoints                                                         *)
(* ------------------------------------------------------------------ *)

let take_checkpoint (pool : pool) ~(loop_no : int) (env : Evalenv.env)
    (name : string) (v : V.t) : unit =
  match pool.store with
  | Some store when Checkpoint.due store ~loop:loop_no ->
      let bindings =
        Sym.Map.fold (fun s bv acc -> (Sym.to_string s, bv) :: acc) env []
        @ [ (name, v) ]
      in
      let snap =
        Checkpoint.record store ~at_loop:loop_no ~chunks:pool.cfg.workers
          ~bindings
          ~driver:[ ("loop_no", V.Vint loop_no) ]
      in
      Option.iter
        (fun dir -> ignore (Checkpoint.write_file ~dir snap))
        pool.cfg.checkpoint_dir;
      pool.stats.checkpoints <- pool.stats.checkpoints + 1;
      count pool "checkpoints";
      Option.iter Fault.record_checkpoint pool.cfg.faults
  | _ -> ()

let load_resume (cfg : config) : Checkpoint.snapshot option =
  match (cfg.resume, cfg.checkpoint_dir) with
  | true, Some dir -> (
      match Option.map Checkpoint.read_file (Checkpoint.latest_file ~dir) with
      | Some (Checkpoint.Available s) -> Some s
      | _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let run ~(link : link) ~(prefix : string) ?(config = default_config)
    ?(inputs = []) (program : Exp.exp) : result =
  let cfg = { config with workers = Stdlib.max 1 config.workers } in
  let metrics =
    match cfg.metrics with Some m -> m | None -> Metrics.create ()
  in
  let stats = fresh_stats () in
  let pool =
    { cfg; link; prefix; inputs; metrics; stats;
      shipment = lazy (shipment program inputs);
      members = Array.init cfg.workers fresh_worker;
      unreaped = [];
      respawns_left = cfg.max_respawns;
      next_wid = 1;
      store =
        (if cfg.checkpoint_cadence > 0 then
           Some (Checkpoint.create ~cadence:cfg.checkpoint_cadence)
         else None);
    }
  in
  let saved_sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let t0 = Unix.gettimeofday () in
  let breakdown = ref [] in
  Fun.protect
    ~finally:(fun () ->
      shutdown pool;
      Sys.set_signal Sys.sigpipe saved_sigpipe)
    (fun () ->
      (match link with
      | Tcp t -> Option.iter (fun f -> f ~addr:t.addr) t.on_listen
      | Pipe -> ());
      if local pool then Array.iter (spawn pool) pool.members;
      (match link with Tcp t -> join_gate pool t | Pipe -> ());
      let restored = load_resume cfg in
      let loop_no = ref 0 in
      let value =
        Spine.exec ~inputs
          ~on_loop:(fun env sym l ->
            incr loop_no;
            let name =
              match sym with Some s -> Sym.to_string s | None -> "result"
            in
            let restored_v =
              match restored with
              | Some snap when !loop_no <= snap.Checkpoint.at_loop ->
                  Option.map
                    (fun (e : Checkpoint.entry) ->
                      Checkpoint.copy_value e.Checkpoint.value)
                    (List.assoc_opt name snap.Checkpoint.bindings)
              | _ -> None
            in
            match restored_v with
            | Some v ->
                stats.restored_loops <- stats.restored_loops + 1;
                count pool "restored_loops";
                Option.iter Fault.record_restore cfg.faults;
                v
            | None ->
                let v, dt =
                  Dmll_util.Timing.time (fun () ->
                      Span.with_span ?tracer:cfg.obs ~tid:Span.runtime_tid
                        ~cat:"runtime"
                        ~args:[ ("loop", Span.Int !loop_no) ]
                        name
                        (fun () -> run_loop pool env ~loop_no:!loop_no l))
                in
                breakdown := (name, dt) :: !breakdown;
                count pool "loops";
                take_checkpoint pool ~loop_no:!loop_no env name v;
                v)
          program
      in
      { value;
        seconds = Unix.gettimeofday () -. t0;
        breakdown = List.rev !breakdown;
        stats;
        metrics;
      })
