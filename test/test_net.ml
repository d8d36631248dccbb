(* TCP executor tests (DESIGN.md §14.2).

   The contract under test: TCP-attached workers hit with real network
   faults — blackholed links, mid-frame severs, CRC-failing corruption,
   SIGKILLed processes — change the membership counters but NEVER the
   computed value; dropped links resume their session inside the grace
   window and are refused (then replanned) outside it; and every run
   terminates with every socket closed and every local child reaped.

   The protocol-level group speaks the wire protocol by hand — raw
   [Transport] frames over a real TCP connection to a live master
   running in this process — so handshake rejection, session resume,
   and grace-expiry refusal are tested against the actual reasons the
   master gives, not just their side effects. *)

open Dmll_ir
open Dmll_interp
open Dmll_runtime
open Exp
open Builder
module M = Dmll_machine.Machine
module NC = Net_cluster

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let value : Value.t Alcotest.testable =
  Alcotest.testable (fun fmt v -> Fmt.string fmt (Value.to_string v)) Value.equal

let xs_input = Exp.Input ("xs", Types.Arr Types.Float, Exp.Partitioned)

let xs_val n =
  Value.of_float_array (Array.init n (fun i -> float_of_int (i mod 17)))

(* Integer reduction: merge order cannot hide behind float rounding, so
   every comparison below is bit-exact. *)
let int_prog =
  isum ~size:(Exp.Len xs_input) (fun i -> f2i (Exp.Read (xs_input, i)) *! int_ 3)

(* A two-loop spine: a distributed collect feeding a distributed int
   reduce, with scalar glue at the end. *)
let spine_prog =
  let ys = Sym.fresh ~name:"ys" (Types.Arr Types.Float) in
  let s = Sym.fresh ~name:"s" Types.Int in
  Exp.Let
    ( ys,
      collect ~size:(len xs_input) (fun i -> read xs_input i *. float_ 2.0),
      Exp.Let
        ( s,
          isum ~size:(len (Exp.Var ys)) (fun i -> f2i (read (Exp.Var ys) i)),
          Exp.Var s +! int_ 1 ) )

let open_fds () = Array.length (Sys.readdir "/proc/self/fd")

let pid_gone pid =
  match Unix.kill pid 0 with
  | () -> false
  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> true
  | exception _ -> true

let no_children () =
  match Unix.waitpid [ Unix.WNOHANG ] (-1) with
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
  | _ -> false

let assert_clean (tag : string) (stats : NC.stats) =
  List.iter
    (fun pid ->
      check tbool (Printf.sprintf "%s: pid %d gone" tag pid) true (pid_gone pid))
    stats.NC.pids;
  check tbool (tag ^ ": no zombies or stray children") true (no_children ())

(* Short supervision horizons so faulted runs spend milliseconds — not
   the default multi-second deadlines — discovering each injected loss,
   and a respawn budget generous enough that chaos never exhausts it. *)
let net_config ?faults ?(workers = 3) ?(task_deadline_s = 0.5)
    ?(heartbeat_s = 0.04) ?(reconnect_grace_s = 0.12) ?(max_respawns = 64) () =
  { NC.default_config with
    NC.workers;
    faults;
    task_deadline_s;
    heartbeat_s;
    reconnect_grace_s;
    max_respawns;
  }

(* ================================================================== *)
(* Transport codec (the shared pipe + TCP frame format)                *)
(* ================================================================== *)

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

let with_socketpair (f : Unix.file_descr -> Unix.file_descr -> unit) : unit =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      close_quiet a;
      close_quiet b)
    (fun () -> f a b)

let write_all fd (buf : bytes) : unit =
  let n = ref 0 in
  while !n < Bytes.length buf do
    n := !n + Unix.write fd buf !n (Bytes.length buf - !n)
  done

(* Read the raw on-wire form of one frame, so tests can damage it. *)
let raw_frame (v : 'a) : bytes =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      close_quiet a;
      close_quiet b)
    (fun () ->
      Transport.write_frame a v;
      Unix.close a;
      let buf = Buffer.create 256 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        match Unix.read b chunk 0 4096 with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            drain ()
      in
      drain ();
      Buffer.to_bytes buf)

let test_frame_roundtrip () =
  with_socketpair (fun a b ->
      Transport.write_frame a "hello";
      Transport.write_frame a [ 1; 2; 3 ];
      Transport.write_frame a (Some (4.5, "x"));
      check Alcotest.string "string round-trips" "hello" (Transport.read_frame b);
      check (Alcotest.list tint) "list round-trips" [ 1; 2; 3 ]
        (Transport.read_frame b);
      check tbool "tuple round-trips" true
        (Transport.read_frame b = Some (4.5, "x")));
  (* the counted-connection wrapper sees the same bytes both ways *)
  with_socketpair (fun a b ->
      let ca = Transport.attach a and cb = Transport.attach b in
      Transport.send ca (42, "payload");
      check tbool "conn round-trips" true (Transport.recv cb = (42, "payload"));
      check tint "bytes counted symmetrically" (Transport.bytes_out ca)
        (Transport.bytes_in cb);
      check tint "one frame out" 1 (Transport.frames_out ca);
      check tint "one frame in" 1 (Transport.frames_in cb);
      check tbool "frame bigger than its header" true
        (Transport.bytes_out ca > Transport.header_bytes))

let test_torn_frame_is_peer_gone () =
  (* header promises 100 bytes, the peer dies after 40: a torn frame is
     a dead peer, not a parse error *)
  with_socketpair (fun a b ->
      let hdr = Bytes.create Transport.header_bytes in
      Bytes.set_int64_be hdr 0 100L;
      Bytes.set_int32_be hdr 8 0l;
      write_all a hdr;
      write_all a (Bytes.create 40);
      Unix.close a;
      match (Transport.read_frame b : string) with
      | _ -> Alcotest.fail "torn frame was accepted"
      | exception Transport.Peer_gone -> ())

let test_short_header_is_peer_gone () =
  with_socketpair (fun a b ->
      write_all a (Bytes.create 5);
      Unix.close a;
      match (Transport.read_frame b : string) with
      | _ -> Alcotest.fail "short header was accepted"
      | exception Transport.Peer_gone -> ())

let test_crc_rejects_flipped_bit () =
  let frame = raw_frame "the quick brown fox jumps over the lazy dog" in
  (* flip one payload bit, well past the header *)
  let i = Transport.header_bytes + (Bytes.length frame - Transport.header_bytes) / 2 in
  Bytes.set frame i (Char.chr (Char.code (Bytes.get frame i) lxor 0x10));
  with_socketpair (fun a b ->
      write_all a frame;
      Unix.close a;
      match (Transport.read_frame b : string) with
      | _ -> Alcotest.fail "corrupt payload was accepted"
      | exception Transport.Corrupt_frame d ->
          check tbool "structured T-FRAME diagnostic" true
            (let s = Dmll_analysis.Diag.to_string d in
             String.length s >= 7
             &&
             let rec find i =
               i + 7 <= String.length s
               && (String.sub s i 7 = "T-FRAME" || find (i + 1))
             in
             find 0))

let test_insane_length_rejected () =
  with_socketpair (fun a b ->
      let hdr = Bytes.create Transport.header_bytes in
      Bytes.set_int64_be hdr 0 (Int64.of_int (Transport.max_frame_bytes + 1));
      Bytes.set_int32_be hdr 8 0l;
      write_all a hdr;
      match (Transport.read_frame b : string) with
      | _ -> Alcotest.fail "oversized frame was accepted"
      | exception Transport.Corrupt_frame _ -> ())

let test_deadline_edge_inclusive () =
  (* data already buffered when the deadline has just arrived is still
     read — the heartbeat that lands exactly at the deadline counts *)
  with_socketpair (fun a b ->
      Transport.write_frame a "on-time";
      check Alcotest.string "frame at the deadline edge accepted" "on-time"
        (Transport.read_frame ~deadline:(Unix.gettimeofday ()) b));
  (* and an empty link past its deadline is a timeout, not a hang *)
  with_socketpair (fun _a b ->
      match
        (Transport.read_frame ~deadline:(Stdlib.( +. ) (Unix.gettimeofday ()) 0.02) b
          : string)
      with
      | _ -> Alcotest.fail "read returned without data"
      | exception Transport.Frame_timeout -> ())

(* The textbook byte-at-a-time CRC32, the reference for the sliced one. *)
let crc32_bytewise (b : bytes) : int =
  let table =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
        done;
        !c)
  in
  let c = ref 0xFFFFFFFF in
  Bytes.iter
    (fun ch -> c := table.((!c lxor Char.code ch) land 0xFF) lxor (!c lsr 8))
    b;
  !c lxor 0xFFFFFFFF

let test_crc32_matches_bytewise () =
  check tint "check value of \"123456789\"" 0xCBF43926
    (Transport.crc32 (Bytes.of_string "123456789"));
  let rng = Random.State.make [| 13 |] in
  let random n = Bytes.init n (fun _ -> Char.chr (Random.State.int rng 256)) in
  for n = 0 to 64 do
    let b = random n in
    check tint (Printf.sprintf "length %d" n) (crc32_bytewise b) (Transport.crc32 b)
  done;
  let big = random (1 lsl 20) in
  check tint "1 MB buffer" (crc32_bytewise big) (Transport.crc32 big)

(* ================================================================== *)
(* Healthy runs                                                        *)
(* ================================================================== *)

let test_healthy_bit_identical () =
  let inputs = [ ("xs", xs_val 1009) ] in
  let fds_before = open_fds () in
  let expected = Interp.run ~inputs int_prog in
  let r = NC.run ~config:(net_config ()) ~inputs int_prog in
  check value "net = interpreter" expected r.NC.value;
  let r2 = NC.run ~config:(net_config ()) ~inputs spine_prog in
  check value "spine net = interpreter" (Interp.run ~inputs spine_prog)
    r2.NC.value;
  assert_clean "healthy" r.NC.stats;
  assert_clean "healthy spine" r2.NC.stats;
  check tint "fds restored (listener, links)" fds_before (open_fds ());
  check tint "every slot joined" 3 r.NC.stats.NC.connects;
  (* idle links answered the loop-boundary keepalives *)
  check tbool "pings answered" true (r2.NC.stats.NC.pongs > 0);
  (* the per-link byte ledger saw real traffic in both directions *)
  let bytes name =
    Option.value ~default:0.0
      (List.assoc_opt name (Dmll_obs.Metrics.byte_counters r.NC.metrics))
  in
  check tbool "bytes flowed to workers" true (bytes "net_bytes_out" > 0.0);
  check tbool "bytes flowed back" true (bytes "net_bytes_in" > 0.0)

(* ================================================================== *)
(* The twelve apps under 5% network chaos                              *)
(* ================================================================== *)

(* crash + partition + sever + corrupt at 5%, delays on top: every
   fault class the network model has, delivered for real on live TCP
   links.  [heartbeat_ms] keys the injected partition duration — keep
   it short so a blackholed link costs milliseconds. *)
let chaos_spec ~seed =
  { M.default_faults with
    M.fault_seed = seed;
    crash_prob = 0.05;
    crash_transient_frac = 1.0;
    straggler_prob = 0.0;
    partition_prob = 0.05;
    sever_prob = 0.05;
    corrupt_prob = 0.05;
    link_delay_prob = 0.1;
    link_delay_ms = 0.3;
    heartbeat_ms = 20.0;
    max_retries = 2;
    backoff_us = 50.0;
  }

let apps : (string * Exp.exp * (string * Value.t) list) list =
  let open Dmll_apps in
  let km_data = Dmll_data.Gaussian.generate ~rows:60 ~cols:6 ~classes:3 () in
  let km_centroids = Dmll_data.Gaussian.random_centroids ~k:3 km_data in
  let lr_data = Dmll_data.Gaussian.generate ~rows:50 ~cols:5 ~classes:2 () in
  let q1_table = Dmll_data.Tpch.generate ~rows:500 () in
  let gene_reads = Dmll_data.Genes.generate ~reads:500 ~barcodes:20 () in
  let pr_graph =
    Dmll_graph.Csr.of_edges (Dmll_data.Rmat.generate ~scale:6 ~edge_factor:4 ())
  in
  let tri_graph =
    Dmll_graph.Csr.of_edges
      (Dmll_data.Rmat.symmetrize
         (Dmll_data.Rmat.generate ~scale:5 ~edge_factor:4 ()))
  in
  let knn_train =
    Dmll_data.Gaussian.generate ~seed:1 ~rows:40 ~cols:4 ~classes:3 ()
  in
  let knn_test =
    Dmll_data.Gaussian.generate ~seed:2 ~rows:12 ~cols:4 ~classes:3 ()
  in
  let nb_data = Dmll_data.Gaussian.generate ~rows:50 ~cols:4 ~classes:3 () in
  let gibbs_graph = Dmll_data.Factor_graph.generate ~vars:50 ~factors:150 () in
  let gibbs_state = Dmll_data.Factor_graph.initial_state gibbs_graph in
  let gibbs_rand = Dmll_data.Factor_graph.sweep_randoms ~sweeps:2 gibbs_graph in
  [ ( "kmeans",
      Kmeans.program ~rows:60 ~cols:6 ~k:3 (),
      Kmeans.inputs km_data ~centroids:km_centroids );
    ( "logreg",
      Logreg.program ~rows:50 ~cols:5 ~alpha:0.01 (),
      Logreg.inputs lr_data ~theta:(Array.make 5 0.1) );
    ("gda", Gda.program ~rows:50 ~cols:5 (), Gda.inputs lr_data);
    ( "tpch_q1",
      Tpch_q1.program (),
      Tpch_q1.aos_inputs q1_table @ Tpch_q1.soa_inputs q1_table );
    ( "gene",
      Gene.program (),
      Gene.aos_inputs gene_reads @ Gene.soa_inputs gene_reads );
    ( "pagerank_pull",
      Pagerank.program_pull ~nv:pr_graph.Dmll_graph.Csr.nv (),
      Pagerank.inputs pr_graph ~ranks:(Pagerank.initial_ranks pr_graph) );
    ( "pagerank_push",
      Pagerank.program_push ~nv:pr_graph.Dmll_graph.Csr.nv (),
      Pagerank.inputs pr_graph ~ranks:(Pagerank.initial_ranks pr_graph) );
    ("tricount", Tricount.program (), Tricount.inputs tri_graph);
    ( "knn",
      Knn.program ~train_rows:40 ~test_rows:12 ~cols:4 (),
      Knn.inputs ~train:knn_train ~test:knn_test );
    ( "naive_bayes",
      Naive_bayes.program ~rows:50 ~cols:4 (),
      Naive_bayes.inputs nb_data );
    ( "gibbs",
      Gibbs.program ~nvars:50 ~replicas:2 (),
      Gibbs.inputs gibbs_graph ~state:gibbs_state ~rand:gibbs_rand );
    ( "ridge",
      Ridge.program ~rows:50 ~cols:5 ~alpha:0.001 ~lambda:0.1 (),
      Ridge.inputs lr_data ~theta:(Array.make 5 0.2) );
  ]

let test_apps_under_network_chaos () =
  let fds_before = open_fds () in
  let link_faults = ref 0 and murders = ref 0 in
  List.iteri
    (fun i (name, program, inputs) ->
      let c = Dmll.compile_with Dmll.Config.default program in
      let reference = (Dmll.execute Dmll.Config.default c ~inputs).Dmll.value in
      let healthy = NC.run ~config:(net_config ()) ~inputs c.Dmll.final in
      (* net vs sequential: bit-identical for exact merges, float-merge
         identical (1e-6) where chunked float reduces reassociate *)
      check tbool
        (name ^ ": net matches sequential")
        true
        (Value.equal healthy.NC.value reference
        || Value.approx_equal ~eps:1e-6 reference healthy.NC.value);
      let fault = Fault.create (chaos_spec ~seed:(300 + i)) in
      let r = NC.run ~config:(net_config ~faults:fault ()) ~inputs c.Dmll.final in
      (* the robustness headline: partitions, severs, corrupt frames,
         and murders never change the value *)
      check value (name ^ ": chaos = healthy, bit-identical") healthy.NC.value
        r.NC.value;
      link_faults := !link_faults + Fault.link_fault_count fault;
      let s = r.NC.stats in
      murders := !murders + s.NC.killed + s.NC.link_cuts + s.NC.deadline_kills;
      assert_clean name s)
    apps;
  check tbool "link faults were delivered across the sweep" true
    (!link_faults > 0);
  check tbool "process murder happened across the sweep" true (!murders > 0);
  check tint "fds restored after the chaos sweep" fds_before (open_fds ())

(* ================================================================== *)
(* Worker dies between a task send and its first reply                 *)
(* ================================================================== *)

let test_kill_between_send_and_reply () =
  let inputs = [ ("xs", xs_val 601) ] in
  let healthy =
    (NC.run ~config:(net_config ()) ~inputs spine_prog).NC.value
  in
  let fds_before = open_fds () in
  let pids = Array.make 8 0 in
  let killed_once = ref false in
  let on_spawn ~slot ~pid = pids.(slot) <- pid in
  (* murder the worker in the race window: its task frame is written,
     its first reply (and first heartbeat) has not happened yet *)
  let on_task_sent ~slot ~chunk:_ =
    if (not !killed_once) && pids.(slot) <> 0 then begin
      killed_once := true;
      Unix.kill pids.(slot) Sys.sigkill
    end
  in
  let config =
    { (net_config ()) with
      NC.on_spawn = Some on_spawn;
      on_task_sent = Some on_task_sent;
    }
  in
  let r = NC.run ~config ~inputs spine_prog in
  check tbool "the kill landed in the race window" true !killed_once;
  check value "kill between send and reply: value unchanged" healthy r.NC.value;
  let s = r.NC.stats in
  (* the reply can beat the SIGKILL into the socket buffer; detection
     then comes from the dead link, the deadline, or the boundary pings
     — one of them must have noticed, and membership must have healed *)
  check tbool "loss was detected" true
    (s.NC.disconnects > 0 || s.NC.deadline_kills > 0
    || s.NC.heartbeat_kills > 0);
  assert_clean "send-race" s;
  check tint "fds restored" fds_before (open_fds ())

(* ================================================================== *)
(* Protocol level: hand-rolled workers over real TCP                   *)
(* ================================================================== *)

let dial (addr : string) : Unix.file_descr =
  let i = String.rindex addr ':' in
  let host = String.sub addr 0 i in
  let port = int_of_string (String.sub addr (i + 1) (String.length addr - i - 1)) in
  let sa = Unix.ADDR_INET (Unix.inet_addr_of_string host, port) in
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd sa;
  fd

(* The welcome, and on [Accepted] the input frame that follows it. *)
let handshake fd ~(token : string) ~(reconnect : int option) :
    NC.welcome * (string * Value.t) list =
  Transport.write_frame fd
    { NC.version = NC.protocol_version; token; reconnect };
  let deadline = Stdlib.( +. ) (Unix.gettimeofday ()) 5.0 in
  match (Transport.read_frame ~deadline fd : NC.welcome) with
  | NC.Accepted _ as w -> (w, Transport.read_frame ~deadline fd)
  | NC.Rejected _ as w -> (w, [])

(* Serve the master's frames, computing chunk values exactly the way a
   real worker does.  [drop_before_reply n] closes the link on receipt
   of the n-th task, before answering — the master is left with an
   in-flight chunk it must retain for resume or replan. *)
let rec fake_serve fd ~(inputs : (string * Value.t) list)
    ~(drop_before_reply : int option) ~(tasks_seen : int ref) : [ `Done | `Dropped ] =
  match (Transport.read_frame fd : NC.to_worker) with
  | exception (Transport.Peer_gone | End_of_file) ->
      close_quiet fd;
      `Done
  | NC.Shutdown ->
      close_quiet fd;
      `Done
  | NC.Ping k ->
      Transport.write_frame fd (NC.Pong k);
      fake_serve fd ~inputs ~drop_before_reply ~tasks_seen
  | NC.Task t ->
      incr tasks_seen;
      if drop_before_reply = Some !tasks_seen then begin
        close_quiet fd;
        `Dropped
      end
      else begin
        let v =
          Dmll_backend.Closure.run ~inputs:(t.NC.bindings @ inputs) t.NC.prog
        in
        Transport.write_frame fd
          (NC.Done
             { task_id = t.NC.task_id; chunk = t.NC.chunk; value = v;
               retries = 0 });
        fake_serve fd ~inputs ~drop_before_reply ~tasks_seen
      end

(* Run the master in this thread against a protocol-speaking worker
   thread; return (master result, worker's observations). *)
let with_fake_worker ~(config : NC.config) ~(inputs : (string * Value.t) list)
    (worker : addr:string -> 'a) (program : Exp.exp) : NC.result * 'a =
  let addr_box = ref None in
  let obs = ref None in
  let mu = Mutex.create () in
  let cond = Condition.create () in
  let on_listen ~addr =
    Mutex.lock mu;
    addr_box := Some addr;
    Condition.signal cond;
    Mutex.unlock mu
  in
  let th =
    Thread.create
      (fun () ->
        Mutex.lock mu;
        while !addr_box = None do
          Condition.wait cond mu
        done;
        let addr = Option.get !addr_box in
        Mutex.unlock mu;
        obs := Some (worker ~addr))
      ()
  in
  let r =
    Fun.protect
      ~finally:(fun () -> Thread.join th)
      (fun () ->
        NC.run
          ~config:{ config with NC.spawn_local = false; on_listen = Some on_listen }
          ~inputs program)
  in
  (r, Option.get !obs)

let test_token = "net-test-token"

let test_reconnect_and_resume () =
  let inputs = [ ("xs", xs_val 509) ] in
  let expected = Interp.run ~inputs spine_prog in
  let fds_before = open_fds () in
  let config =
    { (net_config ~workers:2 ~reconnect_grace_s:1.5 ()) with
      NC.token = Some test_token;
      join_deadline_s = 5.0;
    }
  in
  (* worker A joins, takes its first task, drops the link before
     replying, then redials with its session id inside the grace window
     and serves the replayed chunk (and everything after) to the end;
     worker B serves normally throughout, so the loop genuinely runs
     distributed while A's chunk sits retained *)
  let worker ~addr =
    let server =
      Thread.create
        (fun () ->
          let fd = dial addr in
          match handshake fd ~token:test_token ~reconnect:None with
          | NC.Rejected _, _ -> close_quiet fd
          | NC.Accepted _, winputs ->
              ignore
                (fake_serve fd ~inputs:winputs ~drop_before_reply:None
                   ~tasks_seen:(ref 0)))
        ()
    in
    let obs =
      let fd = dial addr in
      match handshake fd ~token:test_token ~reconnect:None with
      | NC.Rejected { reason }, _ -> `Rejected reason
      | NC.Accepted { wid; _ }, winputs -> (
          let tasks_seen = ref 0 in
          match
            fake_serve fd ~inputs:winputs ~drop_before_reply:(Some 1)
              ~tasks_seen
          with
          | `Done -> `Never_dropped
          | `Dropped -> (
              let fd2 = dial addr in
              match handshake fd2 ~token:test_token ~reconnect:(Some wid) with
              | NC.Rejected { reason }, _ ->
                  close_quiet fd2;
                  `Rejected reason
              | NC.Accepted { wid = wid2; _ }, winputs ->
                  ignore
                    (fake_serve fd2 ~inputs:winputs ~drop_before_reply:None
                       ~tasks_seen);
                  `Resumed (wid, wid2, !tasks_seen)))
    in
    Thread.join server;
    obs
  in
  let r, obs = with_fake_worker ~config ~inputs worker spine_prog in
  (match obs with
  | `Resumed (wid, wid2, seen) ->
      check tint "resume keeps the session id" wid wid2;
      (* the dropped in-flight chunk was replayed after resume *)
      check tbool "saw the replayed task" true (seen >= 2)
  | `Rejected reason -> Alcotest.failf "worker was rejected: %s" reason
  | `Never_dropped -> Alcotest.fail "drop point never reached");
  check value "resumed run = interpreter" expected r.NC.value;
  let s = r.NC.stats in
  check tbool "link loss was recorded" true (s.NC.disconnects >= 1);
  check tint "exactly one resume" 1 s.NC.reconnects;
  check tbool "resume avoided a replan" true (s.NC.grace_expired = 0);
  assert_clean "reconnect" s;
  check tint "fds restored" fds_before (open_fds ())

(* A joined worker that answers every ping but sits on its tasks
   forever: it keeps the master's run (and listener) alive until the
   task deadline kills the link. *)
let rec hold_tasks fd : unit =
  match (Transport.read_frame fd : NC.to_worker) with
  | exception _ -> close_quiet fd
  | NC.Shutdown -> close_quiet fd
  | NC.Ping k ->
      (try Transport.write_frame fd (NC.Pong k) with _ -> ());
      hold_tasks fd
  | NC.Task _ -> hold_tasks fd

let test_grace_expiry_refused_and_replanned () =
  let inputs = [ ("xs", xs_val 421) ] in
  let expected = Interp.run ~inputs spine_prog in
  let fds_before = open_fds () in
  let config =
    { (net_config ~workers:2 ~reconnect_grace_s:0.08 ~task_deadline_s:1.2 ())
      with
      NC.token = Some test_token;
      join_deadline_s = 5.0;
    }
  in
  (* worker A drops mid-task, oversleeps the grace window, then redials
     with the stale session id: the master must refuse the resume — the
     chunks were already replanned — and still finish without it.
     Worker B holds its task (answering pings) so the master is
     provably still running, and listening, when the stale redial
     lands; B dies by task deadline and its chunks fall to the master. *)
  let worker ~addr =
    let holder =
      Thread.create
        (fun () ->
          let fd = dial addr in
          match handshake fd ~token:test_token ~reconnect:None with
          | NC.Rejected _, _ -> close_quiet fd
          | NC.Accepted _, _ -> hold_tasks fd)
        ()
    in
    let obs =
      let fd = dial addr in
      match handshake fd ~token:test_token ~reconnect:None with
      | NC.Rejected { reason }, _ -> `Rejected reason
      | NC.Accepted { wid; _ }, winputs -> (
          let tasks_seen = ref 0 in
          match
            fake_serve fd ~inputs:winputs ~drop_before_reply:(Some 1)
              ~tasks_seen
          with
          | `Done -> `Never_dropped
          | `Dropped -> (
              Thread.delay 0.4;
              let fd2 = dial addr in
              match handshake fd2 ~token:test_token ~reconnect:(Some wid) with
              | NC.Rejected { reason }, _ ->
                  close_quiet fd2;
                  `Refused reason
              | NC.Accepted _, _ ->
                  close_quiet fd2;
                  `Wrongly_resumed))
    in
    Thread.join holder;
    obs
  in
  let r, obs = with_fake_worker ~config ~inputs worker spine_prog in
  (match obs with
  | `Refused reason ->
      check tbool
        ("refusal names the session, not the token: " ^ reason)
        true
        (reason = "grace window expired" || reason = "unknown session")
  | `Wrongly_resumed -> Alcotest.fail "stale session was resumed after grace"
  | `Rejected reason -> Alcotest.failf "initial join rejected: %s" reason
  | `Never_dropped -> Alcotest.fail "drop point never reached");
  check value "master finished without the lost worker" expected r.NC.value;
  let s = r.NC.stats in
  check tbool "grace expiry was recorded" true (s.NC.grace_expired >= 1);
  check tbool "stale redial was rejected" true (s.NC.rejections >= 1);
  check tbool "holding worker hit its task deadline" true
    (s.NC.deadline_kills >= 1);
  check tbool "lost chunks were replanned" true
    (s.NC.replans > 0 || s.NC.master_chunks > 0);
  assert_clean "grace expiry" s;
  check tint "fds restored" fds_before (open_fds ())

let test_handshake_rejections () =
  let inputs = [ ("xs", xs_val 257) ] in
  let expected = Interp.run ~inputs int_prog in
  let config =
    { (net_config ~workers:1 ()) with
      NC.token = Some test_token;
      join_deadline_s = 5.0;
    }
  in
  let worker ~addr =
    (* wrong token *)
    let fd1 = dial addr in
    let r1, _ = handshake fd1 ~token:"wrong" ~reconnect:None in
    close_quiet fd1;
    (* wrong protocol version *)
    let fd2 = dial addr in
    Transport.write_frame fd2
      { NC.version = NC.protocol_version + 1; token = test_token;
        reconnect = None };
    let r2 =
      (Transport.read_frame ~deadline:(Stdlib.( +. ) (Unix.gettimeofday ()) 5.0) fd2
        : NC.welcome)
    in
    close_quiet fd2;
    (* resume of a session that never existed *)
    let fd3 = dial addr in
    let r3, _ = handshake fd3 ~token:test_token ~reconnect:(Some 999) in
    close_quiet fd3;
    (* then a well-formed join that carries the run *)
    let fd4 = dial addr in
    match handshake fd4 ~token:test_token ~reconnect:None with
    | NC.Rejected { reason }, _ -> `Join_failed reason
    | NC.Accepted _, winputs ->
        ignore
          (fake_serve fd4 ~inputs:winputs ~drop_before_reply:None
             ~tasks_seen:(ref 0));
        `Ok (r1, r2, r3)
  in
  let r, obs = with_fake_worker ~config ~inputs worker int_prog in
  (match obs with
  | `Join_failed reason -> Alcotest.failf "clean join rejected: %s" reason
  | `Ok (r1, r2, r3) ->
      let reason = function
        | NC.Rejected { reason } -> reason
        | NC.Accepted _ -> "(accepted)"
      in
      check Alcotest.string "bad token refused" "bad session token" (reason r1);
      check tbool "version mismatch refused" true
        (match r2 with NC.Rejected _ -> true | NC.Accepted _ -> false);
      check Alcotest.string "unknown session refused" "unknown session"
        (reason r3));
  check value "run completed on the surviving join" expected r.NC.value;
  check tint "three hellos were rejected" 3 r.NC.stats.NC.rejections

(* ================================================================== *)
(* Deterministic replay                                                *)
(* ================================================================== *)

let test_replay_determinism () =
  let inputs = [ ("xs", xs_val 769) ] in
  let go () =
    let fault = Fault.create (chaos_spec ~seed:2026) in
    (NC.run ~config:(net_config ~faults:fault ()) ~inputs spine_prog).NC.value
  in
  check value "seeded network chaos replays to the same value" (go ()) (go ())

(* ================================================================== *)
(* Session tokens                                                      *)
(* ================================================================== *)

let test_session_token () =
  let t1 = NC.gen_token () and t2 = NC.gen_token () in
  check tint "32 characters" 32 (String.length t1);
  check tbool "lowercase hex" true
    (String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) t1);
  check tbool "two calls differ" true (t1 <> t2)

(* ================================================================== *)
(* One supervisor, two links                                           *)
(* ================================================================== *)

(* Same chunk plan, same merge order: at the same worker count, healthy
   runs on the pipe and TCP links agree bit-for-bit.  The seed is pinned
   so the same programs run on every build. *)
let prop_links_bit_identical =
  QCheck.Test.make ~count:50 ~name:"pipe link = TCP link, bit-identical"
    QCheck.(
      pair (int_range 2 4)
        (make ~print:Pp.to_string Dmll_testgen.Gen_ir.partitioned_program))
    (fun (workers, program) ->
      let inputs = [ ("xs", xs_val 257) ] in
      match Interp.run ~inputs program with
      | exception Interp.Runtime_error _ -> QCheck.assume_fail ()
      | _ ->
          let pipe =
            Proc_cluster.run
              ~config:{ Proc_cluster.default_config with workers }
              ~inputs program
          in
          let tcp = NC.run ~config:(net_config ~workers ()) ~inputs program in
          Value.equal pipe.Proc_cluster.value tcp.NC.value)

(* The same, with inputs the programs never read around [xs]: the TCP
   link ships only [xs], the pipe link inherits all three, and both
   still agree with each other and with the interpreter. *)
let prop_links_with_decoys =
  QCheck.Test.make ~count:50 ~name:"pipe = TCP = interpreter, with unread inputs"
    QCheck.(
      pair (int_range 2 4)
        (make ~print:Pp.to_string Dmll_testgen.Gen_ir.partitioned_program))
    (fun (workers, program) ->
      let inputs =
        [ ("decoy_floats", xs_val 4096);
          ("xs", xs_val 257);
          ("decoy_ints", Value.of_int_array (Array.init 4096 Fun.id)) ]
      in
      match Interp.run ~inputs program with
      | exception Interp.Runtime_error _ -> QCheck.assume_fail ()
      | expected ->
          let pipe =
            Proc_cluster.run
              ~config:{ Proc_cluster.default_config with workers }
              ~inputs program
          in
          let tcp = NC.run ~config:(net_config ~workers ()) ~inputs program in
          Value.equal pipe.Proc_cluster.value tcp.NC.value
          && Value.equal expected tcp.NC.value)

(* The supervision counters checked against their [<prefix>_<name>]
   metric twins, after a run whose [fired] counter must be nonzero. *)
let check_twins (tag : string) ~(prefix : string) ~(fired : string)
    (r : Supervisor.result) =
  let stats = Supervisor.counters r.Supervisor.stats in
  check tbool (tag ^ ": " ^ fired ^ " fired") true (List.assoc fired stats > 0);
  List.iter
    (fun name ->
      check tint
        (Printf.sprintf "%s: %s_%s = stats" tag prefix name)
        (List.assoc name stats)
        (Dmll_obs.Metrics.count r.Supervisor.metrics (prefix ^ "_" ^ name)))
    [ "heartbeat_kills"; "deadline_kills"; "replans"; "recovered_chunks";
      "master_chunks"; "respawned"; "kills" ]

(* A joined TCP worker that never answers anything: wedged while idle. *)
let rec ignore_frames fd : unit =
  match (Transport.read_frame fd : NC.to_worker) with
  | exception _ -> close_quiet fd
  | NC.Shutdown -> close_quiet fd
  | _ -> ignore_frames fd

let test_counters_match_metrics () =
  let inputs = [ ("xs", xs_val 401) ] in
  (* hung: every first dispatch SIGSTOPs its worker past the deadline *)
  let hung () =
    Fault.create
      { M.default_faults with
        M.fault_seed = 7;
        crash_prob = 0.0;
        straggler_prob = 1.0;
        straggler_slowdown = 30.0;
      }
  in
  (* on the pipe link, slot 1's first worker gets [signal] before it
     ever answers: SIGSTOP wedges it, SIGKILL leaves a dead pipe for the
     liveness gate's ping or pong read to find *)
  let proc_gate_kill signal =
    let sent = ref false in
    let on_spawn ~slot ~pid =
      if slot = 1 && not !sent then begin
        sent := true;
        Unix.kill pid signal
      end
    in
    Proc_cluster.run ~inputs spine_prog
      ~config:
        { Proc_cluster.default_config with
          workers = 3;
          heartbeat_s = 0.03;
          on_spawn = Some on_spawn;
        }
  in
  check_twins "pipe wedged" ~prefix:"proc" ~fired:"heartbeat_kills"
    (proc_gate_kill Sys.sigstop);
  check_twins "pipe dead at the gate" ~prefix:"proc" ~fired:"heartbeat_kills"
    (proc_gate_kill Sys.sigkill);
  let proc_hung =
    Proc_cluster.run ~inputs spine_prog
      ~config:
        { Proc_cluster.default_config with
          workers = 3;
          faults = Some (hung ());
          task_deadline_s = 0.08;
          heartbeat_s = 0.05;
        }
  in
  check_twins "pipe hung" ~prefix:"proc" ~fired:"deadline_kills" proc_hung;
  (* wedged on the TCP link: one hand-rolled worker joins and then goes
     silent, the other serves the run *)
  let config =
    { (net_config ~workers:2 ~heartbeat_s:0.03 ()) with
      NC.token = Some test_token;
      join_deadline_s = 5.0;
    }
  in
  let worker ~addr =
    let silent =
      Thread.create
        (fun () ->
          let fd = dial addr in
          match handshake fd ~token:test_token ~reconnect:None with
          | NC.Rejected _, _ -> close_quiet fd
          | NC.Accepted _, _ -> ignore_frames fd)
        ()
    in
    let fd = dial addr in
    (match handshake fd ~token:test_token ~reconnect:None with
    | NC.Rejected _, _ -> close_quiet fd
    | NC.Accepted _, winputs ->
        ignore
          (fake_serve fd ~inputs:winputs ~drop_before_reply:None
             ~tasks_seen:(ref 0)));
    Thread.join silent
  in
  let net_wedged, () = with_fake_worker ~config ~inputs worker spine_prog in
  check_twins "tcp wedged" ~prefix:"net" ~fired:"heartbeat_kills" net_wedged;
  let net_hung =
    NC.run ~inputs spine_prog
      ~config:(net_config ~faults:(hung ()) ~task_deadline_s:0.08 ())
  in
  check_twins "tcp hung" ~prefix:"net" ~fired:"deadline_kills" net_hung;
  assert_clean "counter twins" net_hung.NC.stats

(* ================================================================== *)
(* Input shipping                                                      *)
(* ================================================================== *)

(* TPC-H Q1 compiled (AoS→SoA + DFE leave seven lineitem columns read)
   and given the AoS table as well as the columns. *)
let q1_case ~(rows : int) : Exp.exp * (string * Value.t) list =
  let table = Dmll_data.Tpch.generate ~rows () in
  let c = Dmll.compile_with Dmll.Config.default (Dmll_apps.Tpch_q1.program ()) in
  ( c.Dmll.final,
    Dmll_apps.Tpch_q1.aos_inputs table @ Dmll_apps.Tpch_q1.soa_inputs table )

let q1_read_columns =
  List.map (fun f -> "lineitem." ^ f)
    [ "returnflag"; "linestatus"; "quantity"; "extendedprice"; "discount";
      "tax"; "shipdate" ]

let test_only_read_inputs_shipped () =
  let program, inputs = q1_case ~rows:500 in
  let config =
    { (net_config ~workers:2 ()) with
      NC.token = Some test_token;
      join_deadline_s = 5.0;
    }
  in
  (* two hand-rolled workers join, record the input names they were
     sent, and serve the run's chunks from exactly those inputs *)
  let join addr =
    let fd = dial addr in
    match handshake fd ~token:test_token ~reconnect:None with
    | NC.Rejected { reason }, _ ->
        close_quiet fd;
        Error reason
    | NC.Accepted _, winputs ->
        let tasks_seen = ref 0 in
        ignore (fake_serve fd ~inputs:winputs ~drop_before_reply:None ~tasks_seen);
        Ok (List.map fst winputs, !tasks_seen)
  in
  let worker ~addr =
    let other = ref (Error "never joined") in
    let th = Thread.create (fun () -> other := join addr) () in
    let mine = join addr in
    Thread.join th;
    [ mine; !other ]
  in
  let r, joins = with_fake_worker ~config ~inputs worker program in
  List.iter
    (function
      | Error reason -> Alcotest.failf "join rejected: %s" reason
      | Ok (names, _) ->
          check (Alcotest.list Alcotest.string) "the seven read columns, no AoS table"
            (List.sort compare q1_read_columns) (List.sort compare names))
    joins;
  check tbool "the workers evaluated chunks" true
    (List.exists (function Ok (_, n) -> n > 0 | Error _ -> false) joins);
  (* the pipe link's workers inherit every input: same chunk plan, so
     bit-identical; the interpreter sums its floats in another order *)
  let pipe =
    Proc_cluster.run ~inputs program
      ~config:{ Proc_cluster.default_config with workers = 2 }
  in
  check value "Q1 = pipe link, bit-identical" pipe.Proc_cluster.value r.NC.value;
  check tbool "Q1 = interpreter within 1e-6" true
    (Value.approx_equal ~eps:1e-6 (Interp.run ~inputs program) r.NC.value)

let test_handshake_bytes_ledgered () =
  let program, inputs = q1_case ~rows:2000 in
  let frame_bytes l = Bytes.length (Transport.encode_frame l) in
  let read = List.filter (fun (n, _) -> List.mem n q1_read_columns) inputs in
  let tracer = Dmll_obs.Span.create () in
  let r =
    NC.run ~inputs program
      ~config:{ (net_config ~workers:2 ()) with NC.obs = Some tracer }
  in
  check tbool "Q1 = interpreter within 1e-6" true
    (Value.approx_equal ~eps:1e-6 (Interp.run ~inputs program) r.NC.value);
  let connects = r.NC.stats.NC.connects in
  check tint "both slots joined once" 2 connects;
  let bytes_out =
    Option.value ~default:0.0
      (List.assoc_opt "net_bytes_out" (Dmll_obs.Metrics.byte_counters r.NC.metrics))
  in
  check tbool "every join's read inputs are ledgered" true
    (bytes_out >= float_of_int (connects * frame_bytes read));
  check tbool "the unread AoS table never crossed" true
    (bytes_out < float_of_int (connects * frame_bytes inputs));
  let welcomes =
    List.filter
      (fun (s : Dmll_obs.Span.span) -> s.name = "net-welcome")
      (Dmll_obs.Span.spans tracer)
  in
  check tint "one net-welcome span per join" connects (List.length welcomes);
  List.iter
    (fun (s : Dmll_obs.Span.span) ->
      let arg k = List.assoc k s.args in
      check tbool "seven of eight inputs shipped" true
        (arg "inputs_shipped" = Dmll_obs.Span.Int 7
        && arg "inputs_total" = Dmll_obs.Span.Int 8);
      check tbool "welcome bytes cover the input frame" true
        (match arg "bytes" with
        | Dmll_obs.Span.Int b -> b > frame_bytes read
        | _ -> false))
    welcomes

(* ---------------- runner ---------------- *)

let () =
  Alcotest.run "net"
    [ ( "transport",
        [ Alcotest.test_case "frames round-trip, bytes counted" `Quick
            test_frame_roundtrip;
          Alcotest.test_case "torn frame is a dead peer" `Quick
            test_torn_frame_is_peer_gone;
          Alcotest.test_case "short header is a dead peer" `Quick
            test_short_header_is_peer_gone;
          Alcotest.test_case "CRC rejects a flipped bit" `Quick
            test_crc_rejects_flipped_bit;
          Alcotest.test_case "insane length rejected" `Quick
            test_insane_length_rejected;
          Alcotest.test_case "deadline edge is inclusive" `Quick
            test_deadline_edge_inclusive;
          Alcotest.test_case "sliced CRC32 = bytewise CRC32" `Quick
            test_crc32_matches_bytewise;
        ] );
      ( "healthy",
        [ Alcotest.test_case "bit-identical, fds restored, bytes ledgered"
            `Quick test_healthy_bit_identical;
        ] );
      ( "chaos",
        [ Alcotest.test_case "twelve apps under 5% network chaos" `Slow
            test_apps_under_network_chaos;
          Alcotest.test_case "kill between task send and first reply" `Quick
            test_kill_between_send_and_reply;
        ] );
      ( "protocol",
        [ Alcotest.test_case "drop mid-task, reconnect, resume" `Quick
            test_reconnect_and_resume;
          Alcotest.test_case "grace expiry refused and replanned" `Quick
            test_grace_expiry_refused_and_replanned;
          Alcotest.test_case "handshake rejections" `Quick
            test_handshake_rejections;
          Alcotest.test_case "session tokens are random hex" `Quick
            test_session_token;
        ] );
      ( "determinism",
        [ Alcotest.test_case "seeded chaos replays exactly" `Quick
            test_replay_determinism;
        ] );
      ( "links",
        [ QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 20260807 |])
            prop_links_bit_identical;
          Alcotest.test_case "supervision counters match their metrics"
            `Quick test_counters_match_metrics;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 20261016 |])
            prop_links_with_decoys;
        ] );
      ( "shipping",
        [ Alcotest.test_case "a joiner receives only the read inputs" `Quick
            test_only_read_inputs_shipped;
          Alcotest.test_case "handshake bytes are ledgered" `Quick
            test_handshake_bytes_ledgered;
        ] );
    ]
