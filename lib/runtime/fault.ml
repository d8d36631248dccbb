(** Deterministic fault injection and recovery bookkeeping (DESIGN.md §9).

    The executors assume a healthy machine; this module takes that
    assumption away on purpose.  A {!Dmll_machine.Machine.fault_model}
    describes a failure regime (crash rates, straggler slowdowns, lossy
    remote reads); {!create} turns it into an injector whose every
    decision is a pure function of the model's seed and the fault site's
    coordinates (multiloop number, node/chunk id, retry attempt) — never
    of wall-clock time or scheduling order.  Determinism matters twice
    over: a faulty run can be replayed exactly, and the domain executor's
    injected schedule is independent of which domain happens to claim
    which chunk.

    Recovery everywhere leans on the lineage property of multiloops
    (paper §5: a multiloop is agnostic to its bounds, so any chunk is
    recomputable from its range and inputs alone).  The injector only
    decides {e when} to hurt and counts what happened; the executors
    recover by deterministic recomputation, which is why injected faults
    never change computed values. *)

module M = Dmll_machine.Machine
module Prng = Dmll_util.Prng

type spec = M.fault_model

(** Raised by an executor worker when the injector fails its current
    chunk: transient faults are retried with exponential backoff, a
    permanent fault kills the worker and leaves the chunk for lineage
    recovery. *)
exception Injected of { transient : bool; site : string }

(* ------------------------------------------------------------------ *)
(* Injector state: the spec plus domain-safe event counters             *)
(* ------------------------------------------------------------------ *)

type stats = {
  crashes : int Atomic.t;  (** injected crash events (nodes or chunks) *)
  permanent : int Atomic.t;
  transient : int Atomic.t;
  stragglers : int Atomic.t;
  read_drops : int Atomic.t;
  read_retries : int Atomic.t;
  degraded_reads : int Atomic.t;  (** remote reads served from a replica *)
  recovered_chunks : int Atomic.t;  (** chunks recomputed from lineage *)
  speculative : int Atomic.t;  (** speculative straggler re-executions *)
  replans : int Atomic.t;
  joins : int Atomic.t;  (** spare nodes that joined mid-job *)
  leaves : int Atomic.t;  (** graceful permanent departures *)
  restores : int Atomic.t;  (** recoveries served from a checkpoint *)
  replays : int Atomic.t;  (** recoveries served by lineage replay *)
  checkpoints : int Atomic.t;  (** snapshots written *)
  partitions : int Atomic.t;  (** injected link partitions (net mode) *)
  severs : int Atomic.t;  (** injected mid-frame link cuts *)
  corrupts : int Atomic.t;  (** injected frame corruptions *)
  link_delays : int Atomic.t;  (** injected link delays *)
}

type t = { spec : spec; stats : stats }

let create (spec : spec) : t =
  { spec;
    stats =
      { crashes = Atomic.make 0;
        permanent = Atomic.make 0;
        transient = Atomic.make 0;
        stragglers = Atomic.make 0;
        read_drops = Atomic.make 0;
        read_retries = Atomic.make 0;
        degraded_reads = Atomic.make 0;
        recovered_chunks = Atomic.make 0;
        speculative = Atomic.make 0;
        replans = Atomic.make 0;
        joins = Atomic.make 0;
        leaves = Atomic.make 0;
        restores = Atomic.make 0;
        replays = Atomic.make 0;
        checkpoints = Atomic.make 0;
        partitions = Atomic.make 0;
        severs = Atomic.make 0;
        corrupts = Atomic.make 0;
        link_delays = Atomic.make 0;
      };
  }

let spec (t : t) = t.spec

(* ------------------------------------------------------------------ *)
(* Deterministic draws                                                 *)
(* ------------------------------------------------------------------ *)

(* A uniform draw in [0,1) that is a pure function of (seed, site, ids):
   independent of scheduling order and of every other site.  SplitMix64's
   output mixing decorrelates the structured seeds. *)
let draw (t : t) ~(site : string) (ids : int list) : float =
  let h = List.fold_left (fun acc i -> (acc * 1000003) lxor (i + 0x9E3779B9)) (Hashtbl.hash site) ids in
  Prng.float (Prng.create (h lxor (t.spec.M.fault_seed * 0x2545F491))) 1.0

(** The fate of a cluster node for one multiloop — drawn fresh per loop,
    so a transient crash hurts one phase while a permanent one is the
    caller's to remember (the injector is stateless about topology). *)
type node_fate =
  | Healthy
  | Crashed of { permanent : bool }
  | Straggling of { slowdown : float }

let node_fate (t : t) ~(loop : int) ~(node : int) : node_fate =
  let s = t.spec in
  let u = draw t ~site:"node" [ loop; node ] in
  if u < s.M.crash_prob then begin
    Atomic.incr t.stats.crashes;
    let permanent = draw t ~site:"crash-kind" [ loop; node ] >= s.M.crash_transient_frac in
    Atomic.incr (if permanent then t.stats.permanent else t.stats.transient);
    Crashed { permanent }
  end
  else if u < s.M.crash_prob +. s.M.straggler_prob then begin
    Atomic.incr t.stats.stragglers;
    Straggling { slowdown = Float.max 1.0 s.M.straggler_slowdown }
  end
  else Healthy

(** The fate of executing one chunk of one multiloop for the [attempt]-th
    time.  Keyed by the chunk, not the worker: the injected schedule is
    identical no matter which domain claims the chunk, and each retry
    draws afresh (so transient faults clear with retries). *)
type chunk_fate =
  | Chunk_ok
  | Chunk_fail of { transient : bool }
  | Chunk_slow of { slowdown : float }

let chunk_fate (t : t) ~(loop : int) ~(chunk : int) ~(attempt : int) : chunk_fate =
  let s = t.spec in
  let u = draw t ~site:"chunk" [ loop; chunk; attempt ] in
  if u < s.M.crash_prob then begin
    Atomic.incr t.stats.crashes;
    let transient = draw t ~site:"chunk-kind" [ loop; chunk; attempt ] < s.M.crash_transient_frac in
    Atomic.incr (if transient then t.stats.transient else t.stats.permanent);
    Chunk_fail { transient }
  end
  else if u < s.M.crash_prob +. s.M.straggler_prob then begin
    Atomic.incr t.stats.stragglers;
    Chunk_slow { slowdown = Float.max 1.0 s.M.straggler_slowdown }
  end
  else Chunk_ok

(* ------------------------------------------------------------------ *)
(* Process mode (DESIGN.md §14)                                        *)
(* ------------------------------------------------------------------ *)

(* Seed-derivation rule for process-mode workers: the worker occupying
   slot [k] jitters its retry backoff from a SplitMix64 stream whose
   seed is the first output of a SplitMix64 generator initialised with
   (fault_seed * 0x3C6EF372) lxor (k + 1).  Keying by the *slot* (not
   the pid, not the spawn order) means a respawned replacement for slot
   k picks up exactly the stream its predecessor would have used, so a
   whole faulty run replays bit-identically under --faults seed=K. *)
let worker_seed (s : spec) ~(worker : int) : int =
  let g = Prng.create ((s.M.fault_seed * 0x3C6EF372) lxor (worker + 1)) in
  Prng.int g max_int

(** What the supervisor does to a worker right after dispatching one
    chunk of one multiloop to it.  Drawn once per (loop, chunk) — on the
    first dispatch only, never on recovery re-dispatches, so an injected
    murder cannot chase a chunk around the pool forever.  [Proc_kill]
    with [close_pipe] severs the master's end of the worker's link
    instead of signalling (a cut pipe is a lost worker; a TCP worker may
    redial); otherwise it is a real [SIGKILL].  [Proc_stop] SIGSTOPs the
    worker for [stop_s] seconds — if the task deadline is shorter, the
    hung-worker path fires first. *)
type proc_fate =
  | Proc_ok
  | Proc_kill of { permanent : bool; close_pipe : bool }
  | Proc_stop of { stop_s : float }

let proc_fate (t : t) ~(loop : int) ~(chunk : int) : proc_fate =
  let s = t.spec in
  let u = draw t ~site:"proc" [ loop; chunk ] in
  if u < s.M.crash_prob then begin
    Atomic.incr t.stats.crashes;
    let permanent =
      draw t ~site:"proc-kind" [ loop; chunk ] >= s.M.crash_transient_frac
    in
    Atomic.incr (if permanent then t.stats.permanent else t.stats.transient);
    let close_pipe = draw t ~site:"proc-mode" [ loop; chunk ] < 0.3 in
    Proc_kill { permanent; close_pipe }
  end
  else if u < s.M.crash_prob +. s.M.straggler_prob then begin
    Atomic.incr t.stats.stragglers;
    (* scaled down from the simulated slowdown so soaks stay fast, but
       long enough that a short task deadline observes a real hang *)
    Proc_stop { stop_s = Float.min 0.25 (0.01 *. Float.max 1.0 s.M.straggler_slowdown) }
  end
  else Proc_ok

(* ------------------------------------------------------------------ *)
(* Network mode (DESIGN.md §16)                                        *)
(* ------------------------------------------------------------------ *)

(** What the fault-injecting transport wrapper does to one outgoing
    master→worker frame of either real-process link.  Drawn per
    (slot, frame number) using the {!worker_seed} slot-seed rule — the
    stream belongs to the {e slot}, so a reconnected or respawned link
    for slot [k] continues its predecessor's fate sequence and a seeded
    chaos run replays.  [Link_partition] blackholes the link (sends
    dropped, inbound frames discarded) for roughly three heartbeat
    intervals; [Link_sever] cuts the connection mid-frame;
    [Link_corrupt] flips a payload byte after the CRC is computed, so
    the receiver's check fails exactly as for a real flipped bit;
    [Link_delay] stalls the frame. *)
type link_fate =
  | Link_ok
  | Link_partition of { for_s : float }
  | Link_sever
  | Link_corrupt
  | Link_delay of { for_s : float }

let link_fate (t : t) ~(slot : int) ~(frame : int) : link_fate =
  let s = t.spec in
  let g =
    Prng.create ((worker_seed s ~worker:slot) lxor ((frame + 1) * 0x9E3779B9))
  in
  let u = Prng.float g 1.0 in
  let p_part = s.M.partition_prob in
  let p_sever = p_part +. s.M.sever_prob in
  let p_corrupt = p_sever +. s.M.corrupt_prob in
  let p_delay = p_corrupt +. s.M.link_delay_prob in
  if u < p_part then begin
    Atomic.incr t.stats.partitions;
    Link_partition
      { for_s = Float.min 0.3 (3.0 *. Float.max 1.0 s.M.heartbeat_ms *. 1e-3) }
  end
  else if u < p_sever then begin
    Atomic.incr t.stats.severs;
    Link_sever
  end
  else if u < p_corrupt then begin
    Atomic.incr t.stats.corrupts;
    Link_corrupt
  end
  else if u < p_delay then begin
    Atomic.incr t.stats.link_delays;
    Link_delay { for_s = Float.max 0.0 s.M.link_delay_ms *. 1e-3 }
  end
  else Link_ok

let link_fault_count (t : t) : int =
  Atomic.get t.stats.partitions + Atomic.get t.stats.severs
  + Atomic.get t.stats.corrupts + Atomic.get t.stats.link_delays

(* ------------------------------------------------------------------ *)
(* Elastic membership (DESIGN.md §11)                                  *)
(* ------------------------------------------------------------------ *)

(** One membership-churn event for one multiloop.  Joins and leaves are
    drawn like every other fault — pure functions of (seed, loop, node)
    — so an elastic run replays exactly.  A [Leave] is a {e graceful}
    permanent departure (the node drains its partitions first, losing no
    lineage); a crash is the violent version handled by {!node_fate}. *)
type membership_event = Join of { node : int } | Leave of { node : int }

(** Membership events for one multiloop, given the current [alive] set
    and the remaining [spares] pool.  At most one spare joins per loop
    (cluster managers serialize admissions); any number may leave, but
    never the last live node. *)
let membership_events (t : t) ~(loop : int) ~(alive : int list)
    ~(spares : int list) : membership_event list =
  let s = t.spec in
  let joins =
    match spares with
    | spare :: _ when draw t ~site:"join" [ loop; spare ] < s.M.join_prob ->
        Atomic.incr t.stats.joins;
        [ Join { node = spare } ]
    | _ -> []
  in
  let leaves =
    List.filter
      (fun node -> draw t ~site:"leave" [ loop; node ] < s.M.leave_prob)
      alive
  in
  (* never let every live node walk away (joins land after leaves drain,
     so they don't loosen the bound) *)
  let max_leaves = List.length alive - 1 in
  let leaves = List.filteri (fun i _ -> i < max_leaves) leaves in
  List.iter (fun _ -> Atomic.incr t.stats.leaves) leaves;
  joins @ List.map (fun node -> Leave { node }) leaves

(** The fate of one remote read, keyed by reader location, index, and
    attempt. *)
type read_fate = Read_ok | Read_drop | Read_delay of { us : float }

let read_fate (t : t) ~(from_loc : int) ~(index : int) ~(attempt : int) : read_fate =
  let s = t.spec in
  let u = draw t ~site:"read" [ from_loc; index; attempt ] in
  if u < s.M.read_drop_prob then begin
    Atomic.incr t.stats.read_drops;
    Read_drop
  end
  else if u < s.M.read_drop_prob +. s.M.read_delay_prob then
    Read_delay { us = s.M.read_delay_us }
  else Read_ok

(** Exponential backoff before retry [attempt] (0-based). *)
let backoff_us (s : spec) ~(attempt : int) : float =
  s.M.backoff_us *. (2.0 ** float_of_int attempt)

let backoff_s (s : spec) ~(attempt : int) : float = backoff_us s ~attempt *. 1e-6

(* Counters the executors bump as they recover. *)
let record_read_retry t = Atomic.incr t.stats.read_retries
let record_degraded t = Atomic.incr t.stats.degraded_reads
let record_recovered t = Atomic.incr t.stats.recovered_chunks
let record_speculation t = Atomic.incr t.stats.speculative
let record_replan t = Atomic.incr t.stats.replans
let record_restore t = Atomic.incr t.stats.restores
let record_replay t = Atomic.incr t.stats.replays
let record_checkpoint t = Atomic.incr t.stats.checkpoints
let join_count t = Atomic.get t.stats.joins
let leave_count t = Atomic.get t.stats.leaves
let restore_count t = Atomic.get t.stats.restores
let replay_count t = Atomic.get t.stats.replays
let checkpoint_count t = Atomic.get t.stats.checkpoints

(** Total injected fault events of any kind. *)
let total_injected (t : t) : int =
  Atomic.get t.stats.crashes + Atomic.get t.stats.stragglers
  + Atomic.get t.stats.read_drops

let stats_to_string (t : t) : string =
  let g = Atomic.get in
  let s = t.stats in
  Printf.sprintf
    "crashes=%d (permanent=%d, transient=%d) stragglers=%d speculated=%d \
     replans=%d recovered_chunks=%d read_drops=%d read_retries=%d \
     degraded_reads=%d joins=%d leaves=%d restores=%d replays=%d \
     checkpoints=%d partitions=%d severs=%d corrupts=%d link_delays=%d"
    (g s.crashes) (g s.permanent) (g s.transient) (g s.stragglers)
    (g s.speculative) (g s.replans) (g s.recovered_chunks) (g s.read_drops)
    (g s.read_retries) (g s.degraded_reads) (g s.joins) (g s.leaves)
    (g s.restores) (g s.replays) (g s.checkpoints) (g s.partitions)
    (g s.severs) (g s.corrupts) (g s.link_delays)

(* ------------------------------------------------------------------ *)
(* Spec syntax: the DMLL_FAULTS / --faults grammar                      *)
(* ------------------------------------------------------------------ *)

(* One row per key — name, printer, parser — so the grammar, the
   pp_spec/parse_spec round-trip, and the unknown-key diagnostic can
   never drift apart.  Floats print with 17 significant digits, enough
   for every double to survive the round trip exactly. *)
let keys :
    (string * (spec -> string) * (spec -> string -> (spec, string) result)) list
    =
  let fl set spec v =
    match float_of_string_opt v with
    | Some f -> Ok (set spec f)
    | None -> Error (Printf.sprintf "bad number %S" v)
  in
  let it set spec v =
    match int_of_string_opt v with
    | Some n -> Ok (set spec n)
    | None -> Error (Printf.sprintf "bad integer %S" v)
  in
  let pf get s = Printf.sprintf "%.17g" (get s) in
  let pi get s = string_of_int (get s) in
  [ ( "seed",
      pi (fun s -> s.M.fault_seed),
      it (fun s n -> { s with M.fault_seed = n }) );
    ( "crash",
      pf (fun s -> s.M.crash_prob),
      fl (fun s f -> { s with M.crash_prob = f }) );
    ( "transient",
      pf (fun s -> s.M.crash_transient_frac),
      fl (fun s f -> { s with M.crash_transient_frac = f }) );
    ( "straggler",
      pf (fun s -> s.M.straggler_prob),
      fl (fun s f -> { s with M.straggler_prob = f }) );
    ( "slow",
      pf (fun s -> s.M.straggler_slowdown),
      fl (fun s f -> { s with M.straggler_slowdown = f }) );
    ( "drop",
      pf (fun s -> s.M.read_drop_prob),
      fl (fun s f -> { s with M.read_drop_prob = f }) );
    ( "delay",
      pf (fun s -> s.M.read_delay_prob),
      fl (fun s f -> { s with M.read_delay_prob = f }) );
    ( "delay_us",
      pf (fun s -> s.M.read_delay_us),
      fl (fun s f -> { s with M.read_delay_us = f }) );
    ( "retries",
      pi (fun s -> s.M.max_retries),
      it (fun s n -> { s with M.max_retries = n }) );
    ( "backoff_us",
      pf (fun s -> s.M.backoff_us),
      fl (fun s f -> { s with M.backoff_us = f }) );
    ( "heartbeat_ms",
      pf (fun s -> s.M.heartbeat_ms),
      fl (fun s f -> { s with M.heartbeat_ms = f }) );
    ( "join",
      pf (fun s -> s.M.join_prob),
      fl (fun s f -> { s with M.join_prob = f }) );
    ( "leave",
      pf (fun s -> s.M.leave_prob),
      fl (fun s f -> { s with M.leave_prob = f }) );
    ( "spares",
      pi (fun s -> s.M.spare_nodes),
      it (fun s n -> { s with M.spare_nodes = n }) );
    ( "partition",
      pf (fun s -> s.M.partition_prob),
      fl (fun s f -> { s with M.partition_prob = f }) );
    ( "sever",
      pf (fun s -> s.M.sever_prob),
      fl (fun s f -> { s with M.sever_prob = f }) );
    ( "corrupt",
      pf (fun s -> s.M.corrupt_prob),
      fl (fun s f -> { s with M.corrupt_prob = f }) );
    ( "link_delay",
      pf (fun s -> s.M.link_delay_prob),
      fl (fun s f -> { s with M.link_delay_prob = f }) );
    ( "link_delay_ms",
      pf (fun s -> s.M.link_delay_ms),
      fl (fun s f -> { s with M.link_delay_ms = f }) );
  ]

let valid_keys : string list = List.map (fun (k, _, _) -> k) keys

(** Print a spec in the grammar {!parse_spec} accepts; the round trip is
    exact (QCheck-verified). *)
let pp_spec fmt (s : spec) : unit =
  Fmt.string fmt
    (String.concat "," (List.map (fun (k, pr, _) -> k ^ "=" ^ pr s) keys))

let to_string (s : spec) : string = Fmt.str "%a" pp_spec s

(** Parse a comma-separated [key=value] spec; unset keys keep
    {!Dmll_machine.Machine.default_faults}.  Rejections — unknown keys,
    malformed numbers, missing [=] — come back as a structured [Diag]
    error (rule [F-SPEC]) listing every valid key, so a typo'd
    [DMLL_FAULTS] fails loudly instead of silently running some other
    fault regime. *)
let parse_spec (str : string) : (spec, Dmll_analysis.Diag.t) result =
  let parts =
    String.split_on_char ',' str |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        Error
          (Dmll_analysis.Diag.error ~rule:"F-SPEC"
             "%s; valid keys: %s" msg
             (String.concat ", " valid_keys)))
      fmt
  in
  let rec go (spec : spec) = function
    | [] -> Ok spec
    | kv :: rest -> (
        match String.index_opt kv '=' with
        | None -> fail "expected key=value, got %S" kv
        | Some i -> (
            let key = String.sub kv 0 i in
            let v = String.sub kv (i + 1) (String.length kv - i - 1) in
            match List.find_opt (fun (k, _, _) -> String.equal k key) keys with
            | None -> fail "unknown fault key %S" key
            | Some (_, _, set) -> (
                match set spec v with
                | Ok spec -> go spec rest
                | Error msg -> fail "%s for key %s" msg key)))
  in
  go M.default_faults parts

(** [parse_spec] with the diagnostic flattened to a string, for callers
    that only print it. *)
let parse (str : string) : (spec, string) result =
  Result.map_error Dmll_analysis.Diag.to_string (parse_spec str)

(* The DMLL_FAULTS environment variable is read by [Dmll.Config.of_env]
   (the single env reader); this module only parses specs. *)

(* ------------------------------------------------------------------ *)
(* Debug re-verification                                               *)
(* ------------------------------------------------------------------ *)

(** Debug hook mirroring [Dmll_opt.Pipeline.post_stage_check]: when armed
    (DMLL_DEBUG=1 arms it with [Dmll.verify_stage]), the executors
    re-typecheck and re-verify the chunk program induced by every replan
    and lineage recovery before running it — the same proof obligation
    PR 1 places behind every optimizer stage. *)
let post_replan_check : (string -> Dmll_ir.Exp.exp -> unit) option ref = ref None

let check_replan (site : string) (e : Dmll_ir.Exp.exp) : unit =
  match !post_replan_check with None -> () | Some f -> f site e
