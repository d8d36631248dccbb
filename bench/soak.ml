(* Chaos soak (DESIGN.md §11): the headline robustness artifact.

   Generates a stream of random well-typed DMLL programs (the property-test
   generator, wrapped so every program owns a partitioned input and hence
   at least one distributed loop), then runs each on the simulated cluster
   under a randomized chaos regime — crashes, stragglers, lossy remote
   reads, membership churn (joins + graceful leaves), tight memory budgets,
   and periodic checkpoints with the restore-vs-replay recovery policy
   armed.  Every run's value must be bit-identical to the reference
   interpreter: chaos may only move the simulated clock, never the answer.

   Everything is seeded: same seed, same programs, same chaos, same
   decisions.  Exits nonzero on the first mismatch.  Emits a JSON
   recovery-cost profile at the end:

     {"programs":N,"checked":N,"skipped":K,"seed":S,
      "phases":{"detect":...,"recompute":...,"rebalance":...,
                "restore":...,"checkpoint":...,"churn":...,"spill":...},
      "events":{"injected":...,"joins":...,"leaves":...,
                "restores":...,"replays":...,"checkpoints":...},
      "decisions":[{"at_loop":...,"chosen":"restore",...},...]}

   Two real-executor legs (DESIGN.md §14) run their own program streams
   on one supervisor: --proc-programs N on the pipe link under process
   murder (SIGKILLs, SIGSTOP straggling, severed pipes), --net-programs
   N on the TCP link under network chaos (crashes plus blackholed
   links, mid-frame severs, CRC-failing corruption, delays).  Each
   asserts the faulted run bit-identical to the healthy run, and the
   healthy run equal to the interpreter (1e-6 for reassociated float
   reductions).

   --deadline-s S arms a hard wall-clock watchdog (SIGALRM): if the
   whole soak exceeds S seconds it exits 124, so a wedged run can never
   hang a CI gate.

   Usage: soak.exe [--programs N] [--proc-programs N] [--net-programs N]
                   [--seed S] [--deadline-s S] [--verbose]
   The `dune build @soak` alias runs the short pinned simulated
   configuration; `@proc-soak` the pinned real-process leg; `@net-soak`
   the pinned TCP leg. *)

open Dmll_ir
module R = Dmll_runtime
module M = Dmll_machine.Machine
module V = Dmll_interp.Value
module Interp = Dmll_interp.Interp

let default_programs = 120
let default_seed = 20260807

(* ------------------------------------------------------------------ *)
(* Program generation                                                  *)
(* ------------------------------------------------------------------ *)

(* Every program owns a partitioned input ("xs"), so the wrapper loop is
   distributed and the cluster's fault/churn/pressure machinery is always
   exercised.  Shared with the recovery-equivalence property tests. *)
let gen_soak_program : Exp.exp QCheck.Gen.t =
  Dmll_testgen.Gen_ir.partitioned_program

(* ------------------------------------------------------------------ *)
(* Chaos regimes                                                       *)
(* ------------------------------------------------------------------ *)

(* All chaos parameters are drawn from a private SplitMix64 stream keyed
   by the soak seed and the program number — reproducible and independent
   of generation order. *)
let chaos_config ~(seed : int) ~(program_no : int) =
  let rng = Dmll_util.Prng.create (seed lxor (program_no * 0x9E3779B9)) in
  let f bound = Dmll_util.Prng.float rng bound in
  let pick xs = List.nth xs (int_of_float (f (float_of_int (List.length xs)))) in
  let nodes = pick [ 2; 3; 5; 8 ] in
  let spec =
    { M.default_faults with
      M.fault_seed = seed + program_no;
      crash_prob = f 0.3;
      crash_transient_frac = 0.3 +. f 0.5;
      straggler_prob = f 0.2;
      read_drop_prob = f 0.05;
      read_delay_prob = f 0.05;
      join_prob = f 0.3;
      leave_prob = f 0.15;
      spare_nodes = pick [ 2; 3; 4 ];
      max_retries = 2;
      backoff_us = 1.0;
    }
  in
  let mem_budget_gb =
    (* every third program runs with a ~2KB budget, tight enough that its
       partition share spills and remote reads see backpressure *)
    if program_no mod 3 = 0 then Some 2e-6 else None
  in
  let injector = R.Fault.create spec in
  let store = R.Checkpoint.create ~cadence:(pick [ 1; 2; 3 ]) in
  let config =
    { R.Sim_cluster.default_config with
      cluster = M.with_nodes nodes M.ec2_cluster;
      faults = Some injector;
      mem_budget_gb;
    }
  in
  (config, injector, store)

(* ------------------------------------------------------------------ *)
(* The soak loop                                                       *)
(* ------------------------------------------------------------------ *)

let phase_names =
  R.Sim_common.recovery_phases @ R.Sim_common.elastic_phases
  @ [ "compute"; "broadcast"; "replicate"; "gather" ]

let run ?(programs = default_programs) ?(seed = default_seed)
    ?(verbose = false) () : int =
  let rand = Random.State.make [| seed |] in
  let progs = QCheck.Gen.generate ~n:programs ~rand gen_soak_program in
  let phase_totals = Hashtbl.create 16 in
  let add_phase p s =
    Hashtbl.replace phase_totals p
      (s +. Option.value ~default:0.0 (Hashtbl.find_opt phase_totals p))
  in
  let checked = ref 0 and skipped = ref 0 and mismatches = ref 0 in
  let injected = ref 0 and joins = ref 0 and leaves = ref 0 in
  let restores = ref 0 and replays = ref 0 and checkpoints = ref 0 in
  let all_decisions = ref [] in
  List.iteri
    (fun pno program ->
      let n = 256 + ((pno * 37) mod 512) in
      let inputs =
        [ ("xs", V.of_float_array (Array.init n (fun i -> float_of_int (i mod 23))))
        ]
      in
      match Interp.run ~inputs program with
      | exception Interp.Runtime_error _ -> incr skipped
      | expected ->
          let config, injector, store = chaos_config ~seed ~program_no:pno in
          let result =
            R.Sim_cluster.run ~config ~checkpoint:store ~inputs program
          in
          incr checked;
          if not (V.equal expected result.R.Sim_common.value) then begin
            incr mismatches;
            Printf.eprintf
              "MISMATCH program %d (seed %d):\n%s\nexpected %s\ngot      %s\n"
              pno seed
              (Dmll_ir.Pp.to_string program)
              (V.to_string expected)
              (V.to_string result.R.Sim_common.value)
          end;
          List.iter (fun p -> add_phase p (R.Sim_common.phase_total result p)) phase_names;
          injected := !injected + R.Fault.total_injected injector;
          joins := !joins + R.Fault.join_count injector;
          leaves := !leaves + R.Fault.leave_count injector;
          restores := !restores + R.Fault.restore_count injector;
          replays := !replays + R.Fault.replay_count injector;
          checkpoints := !checkpoints + R.Fault.checkpoint_count injector;
          all_decisions := !all_decisions @ R.Checkpoint.decisions store;
          if verbose then
            Printf.printf "program %3d: nodes=%d %s\n%!" pno
              config.R.Sim_cluster.cluster.M.nodes
              (R.Fault.stats_to_string injector))
    progs;
  let phases_json =
    String.concat ", "
      (List.map
         (fun p ->
           Printf.sprintf "\"%s\": %.6g" p
             (Option.value ~default:0.0 (Hashtbl.find_opt phase_totals p)))
         phase_names)
  in
  let decisions_json =
    String.concat ", "
      (List.map
         (fun (d : R.Checkpoint.decision) ->
           Printf.sprintf
             "{\"at_loop\": %d, \"chosen\": \"%s\", \"restore_cost_s\": \
              %.6g, \"replay_cost_s\": %.6g}"
             d.R.Checkpoint.decided_at_loop
             (R.Checkpoint.choice_to_string d.R.Checkpoint.chosen)
             d.R.Checkpoint.restore_cost d.R.Checkpoint.replay_cost)
         !all_decisions)
  in
  Printf.printf
    "{\"programs\": %d, \"checked\": %d, \"skipped\": %d, \"mismatches\": %d, \
     \"seed\": %d, \"phases\": {%s}, \"events\": {\"injected\": %d, \
     \"joins\": %d, \"leaves\": %d, \"restores\": %d, \"replays\": %d, \
     \"checkpoints\": %d}, \"decisions\": [%s]}\n"
    programs !checked !skipped !mismatches seed phases_json !injected !joins
    !leaves !restores !replays !checkpoints decisions_json;
  if !mismatches > 0 then 1
  else if !checked < 100 && programs >= 100 then begin
    Printf.eprintf
      "soak: only %d of %d programs were checkable (need >= 100)\n" !checked
      programs;
    1
  end
  else 0

(* ------------------------------------------------------------------ *)
(* Real-executor legs (DESIGN.md §14)                                  *)
(* ------------------------------------------------------------------ *)

(* Per-program murder regime for the pipe link, drawn from a stream
   independent of the simulated leg's: every worker count and fault
   probability reproduces from (seed, program number) alone. *)
let proc_chaos ~(seed : int) ~(program_no : int) =
  let rng = Dmll_util.Prng.create ((seed + 77) lxor (program_no * 0x2545F491)) in
  let f bound = Dmll_util.Prng.float rng bound in
  let pick xs = List.nth xs (int_of_float (f (float_of_int (List.length xs)))) in
  let workers = pick [ 2; 3; 4 ] in
  let spec =
    { M.default_faults with
      M.fault_seed = seed + 1000 + program_no;
      crash_prob = 0.1 +. f 0.2;
      crash_transient_frac = 0.5 +. f 0.5;
      straggler_prob = f 0.15;
      straggler_slowdown = 20.0;
      max_retries = 2;
      backoff_us = 1.0;
    }
  in
  (workers, spec)

(* Per-program network-chaos regime for the TCP link: crashes and
   stragglers as in the proc leg, plus the link fault classes —
   blackholed partitions, mid-frame severs, CRC-failing corruption,
   delivery delays — drawn from a stream independent of both other legs.
   [heartbeat_ms] keys the injected partition duration; keep it short so
   a blackholed link costs milliseconds of soak wall-clock, not seconds. *)
let net_chaos ~(seed : int) ~(program_no : int) =
  let rng = Dmll_util.Prng.create ((seed + 131) lxor (program_no * 0x1B873593)) in
  let f bound = Dmll_util.Prng.float rng bound in
  let pick xs = List.nth xs (int_of_float (f (float_of_int (List.length xs)))) in
  let workers = pick [ 2; 3 ] in
  let spec =
    { M.default_faults with
      M.fault_seed = seed + 2000 + program_no;
      crash_prob = f 0.15;
      crash_transient_frac = 0.5 +. f 0.5;
      straggler_prob = f 0.1;
      straggler_slowdown = 20.0;
      partition_prob = f 0.08;
      sever_prob = f 0.08;
      corrupt_prob = f 0.08;
      link_delay_prob = f 0.1;
      link_delay_ms = 0.3;
      heartbeat_ms = 20.0;
      max_retries = 2;
      backoff_us = 1.0;
    }
  in
  (workers, spec)

(* One real-executor leg: its name, its program stream (generator salt
   and input-size step), its chaos regime, how to run it, and the guard
   that fails the leg when the chaos injected nothing. *)
type leg = {
  name : string;
  salt : int;
  size_step : int;
  chaos : seed:int -> program_no:int -> int * M.fault_model;
  execute :
    workers:int -> ?faults:R.Fault.t -> (string * V.t) list -> Exp.exp ->
    R.Supervisor.result;
  injected : R.Fault.t -> R.Supervisor.stats -> int;
  silent : string;  (** the error when [injected] totals 0 *)
}

let proc_leg =
  { name = "proc";
    salt = 0x5DEECE66;
    size_step = 53;
    chaos = proc_chaos;
    execute =
      (fun ~workers ?faults inputs program ->
        R.Proc_cluster.run ~inputs program
          ~config:
            { R.Proc_cluster.default_config with
              workers;
              faults;
              task_deadline_s = 2.0;
              heartbeat_s = 0.05;
            });
    injected = (fun _ s -> s.R.Supervisor.killed + s.stopped + s.link_cuts);
    silent = "chaos regime injected no process murder";
  }

let net_leg =
  { name = "net";
    salt = 0x2E1B2138;
    size_step = 41;
    chaos = net_chaos;
    execute =
      (fun ~workers ?faults inputs program ->
        R.Net_cluster.run ~inputs program
          ~config:
            { R.Net_cluster.default_config with
              workers;
              faults;
              task_deadline_s = 0.6;
              heartbeat_s = 0.04;
              reconnect_grace_s = 0.1;
              max_respawns = 64;
            });
    injected = (fun f _ -> R.Fault.link_fault_count f);
    silent = "chaos regime delivered no link faults";
  }

(* Run [programs] random programs on a real executor, healthy and under
   chaos, asserting the chaos value bit-identical to the healthy one and
   the healthy one equal to the interpreter (1e-6 for reassociated float
   merges).  Hard-fails if the leg's chaos injected nothing — a silent
   injector would turn the gate into a no-op.  Prints a JSON summary
   line; returns the exit code. *)
let run_leg (leg : leg) ~(programs : int) ~(seed : int) ~(verbose : bool) () :
    int =
  let rand = Random.State.make [| seed lxor leg.salt |] in
  let progs = QCheck.Gen.generate ~n:programs ~rand gen_soak_program in
  let checked = ref 0 and skipped = ref 0 and mismatches = ref 0 in
  let injected = ref 0 and link_faults = ref 0 in
  let totals = ref (R.Supervisor.counters (R.Supervisor.fresh_stats ())) in
  let tag = String.uppercase_ascii leg.name in
  let mismatch what pno program (a, va) (b, vb) =
    incr mismatches;
    Printf.eprintf "%s MISMATCH (%s) program %d (seed %d):\n%s\n%-8s %s\n%-8s %s\n"
      tag what pno seed
      (Dmll_ir.Pp.to_string program)
      a (V.to_string va) b (V.to_string vb)
  in
  List.iteri
    (fun pno program ->
      let n = 256 + ((pno * leg.size_step) mod 512) in
      let inputs =
        [ ("xs", V.of_float_array (Array.init n (fun i -> float_of_int (i mod 23))))
        ]
      in
      match Interp.run ~inputs program with
      | exception Interp.Runtime_error _ -> incr skipped
      | expected -> (
          let workers, spec = leg.chaos ~seed ~program_no:pno in
          let healthy = (leg.execute ~workers inputs program).R.Supervisor.value in
          incr checked;
          if not (V.equal healthy expected || V.approx_equal ~eps:1e-6 expected healthy)
          then
            mismatch "healthy vs interp" pno program ("expected", expected)
              ("got", healthy);
          let injector = R.Fault.create spec in
          match leg.execute ~workers ~faults:injector inputs program with
          | exception e ->
              incr mismatches;
              Printf.eprintf "%s CRASH program %d (seed %d): %s\n" tag pno seed
                (Printexc.to_string e)
          | faulted ->
              (* the headline assertion: chaos never moves the value —
                 bit-identical, not approximately equal *)
              if not (V.equal faulted.R.Supervisor.value healthy) then
                mismatch "faulted vs healthy" pno program ("healthy", healthy)
                  ("faulted", faulted.R.Supervisor.value);
              let s = faulted.R.Supervisor.stats in
              injected := !injected + leg.injected injector s;
              link_faults := !link_faults + R.Fault.link_fault_count injector;
              totals :=
                List.map2 (fun (k, a) (_, b) -> (k, a + b)) !totals
                  (R.Supervisor.counters s);
              if verbose then
                Printf.printf "%s program %3d: workers=%d %s\n%!" leg.name pno
                  workers
                  (R.Supervisor.stats_to_string s)))
    progs;
  Printf.printf
    "{\"%s_programs\": %d, \"checked\": %d, \"skipped\": %d, \
     \"mismatches\": %d, \"seed\": %d, \"events\": {\"link_faults\": %d, %s}}\n"
    leg.name programs !checked !skipped !mismatches seed
    !link_faults
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %d" k v) !totals));
  if !mismatches > 0 then 1
  else if programs > 0 && !injected = 0 then begin
    Printf.eprintf "%s soak: %s\n" leg.name leg.silent;
    1
  end
  else 0

(* Hard wall-clock watchdog: a wedged soak exits 124 instead of hanging
   the CI gate.  SIGALRM is delivered to the parent only; workers forked
   later inherit the handler but never the pending alarm. *)
let arm_watchdog (deadline_s : int) : unit =
  if deadline_s > 0 then begin
    Sys.set_signal Sys.sigalrm
      (Sys.Signal_handle
         (fun _ ->
           Printf.eprintf "soak: wall-clock deadline (%ds) exceeded\n%!"
             deadline_s;
           exit 124));
    ignore (Unix.alarm deadline_s)
  end

let () =
  let programs = ref default_programs in
  let proc_programs = ref 0 in
  let net_programs = ref 0 in
  let seed = ref default_seed in
  let deadline_s = ref 0 in
  let verbose = ref false in
  let rec parse = function
    | [] -> ()
    | "--programs" :: v :: rest ->
        programs := int_of_string v;
        parse rest
    | "--proc-programs" :: v :: rest ->
        proc_programs := int_of_string v;
        parse rest
    | "--net-programs" :: v :: rest ->
        net_programs := int_of_string v;
        parse rest
    | "--seed" :: v :: rest ->
        seed := int_of_string v;
        parse rest
    | "--deadline-s" :: v :: rest ->
        deadline_s := int_of_string v;
        parse rest
    | "--verbose" :: rest ->
        verbose := true;
        parse rest
    | a :: _ ->
        Printf.eprintf
          "soak: unknown argument %S\nusage: soak.exe [--programs N] \
           [--proc-programs N] [--net-programs N] [--seed S] \
           [--deadline-s S] [--verbose]\n"
          a;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  arm_watchdog !deadline_s;
  let sim_code =
    if !programs > 0 then run ~programs:!programs ~seed:!seed ~verbose:!verbose ()
    else 0
  in
  let proc_code =
    if !proc_programs > 0 then
      run_leg proc_leg ~programs:!proc_programs ~seed:!seed ~verbose:!verbose ()
    else 0
  in
  let net_code =
    if !net_programs > 0 then
      run_leg net_leg ~programs:!net_programs ~seed:!seed ~verbose:!verbose ()
    else 0
  in
  exit (max sim_code (max proc_code net_code))
