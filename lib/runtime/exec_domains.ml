(** Real multicore execution of DMLL programs on OCaml 5 domains.

    This executor actually runs multiloop chunks in parallel (unlike the
    analytic simulators, which model bigger machines than this container
    has).  Each outer multiloop is split into contiguous chunks; each
    domain compiles its own chunk closure (keeping the backend's generator
    state domain-private) and the partial results are merged with the
    loop's own generators (see {!Merge}).  Tests verify the results equal
    sequential execution.

    With a {!Fault} injector supplied ([?faults]), the executor becomes
    fault-tolerant for real: a chunk whose domain draws an injected fault
    is retried with exponential backoff (transient faults), a permanent
    fault kills its worker domain — shrinking the pool — and the dead
    worker's chunk is recomputed from lineage by the master after the
    join.  Because the injected schedule is keyed by (loop, chunk,
    attempt) and chunk partials merge in index order, results are
    identical to the fault-free run under every injected schedule. *)

open Dmll_ir
module V = Dmll_interp.Value
module M = Dmll_machine.Machine
module Span = Dmll_obs.Span
module Metrics = Dmll_obs.Metrics

(* Build the chunk program for [lo, hi): a loop of size hi-lo whose parts
   see the original index as [idx' + lo]. *)
let chunk_loop (l : Exp.loop) (r : Chunk.range) : Exp.exp =
  let open Exp in
  let idx' = Sym.fresh ~name:"ci" Types.Int in
  let shift = Builder.( +! ) (Var idx') (int_ r.Chunk.lo) in
  let rw e = refresh_binders (subst1 l.idx shift e) in
  let gens =
    List.map
      (fun g ->
        let g = map_gen_parts rw g in
        match g with
        | Reduce rd -> Reduce { rd with rfun = rw rd.rfun }
        | BucketReduce rd -> BucketReduce { rd with rfun = rw rd.rfun }
        | g -> g)
      l.gens
  in
  Loop { size = int_ (Chunk.size r); idx = idx'; gens }

(** Chunking policy: [Static] gives each domain one contiguous chunk;
    [Dynamic] over-decomposes into many small chunks that idle domains
    pull from a shared queue — the paper's multi-core partitioner
    "provides dynamic load balancing within each machine, which provides
    much better scaling for irregular applications" (§5). *)
type schedule = Static | Dynamic

let chunks_of ~(domains : int) ~(schedule : schedule) (n : int) : Chunk.range list =
  match schedule with
  | Static -> Chunk.split ~k:domains n
  | Dynamic -> Chunk.split ~k:(8 * domains) n

(* Merge indexed chunk partials with the loop's generators; single-chunk
   loops pass the (sole) value through. *)
let merge_parts ~(env : Evalenv.env) ~(inputs : (string * V.t) list) (l : Exp.loop)
    ~(nchunks : int) (parts : (int * V.t) list) : V.t =
  let ordered = Merge.in_chunk_order parts in
  if nchunks <= 1 then List.hd ordered
  else
    match l.Exp.gens with
    | [ g ] -> Merge.merge_gen ~env ~inputs g ordered
    | gens ->
        (* multi-generator loop: merge per generator *)
        let per_gen =
          List.mapi
            (fun k g ->
              let parts_k =
                List.map
                  (fun p ->
                    match p with
                    | V.Vtup vs -> vs.(k)
                    | _ -> invalid_arg "Exec_domains: expected tuple of partials")
                  ordered
              in
              Merge.merge_gen ~env ~inputs g parts_k)
            gens
        in
        V.Vtup (Array.of_list per_gen)

(* Evaluate one loop in parallel across [domains] chunks (healthy path). *)
let run_loop_healthy ~(domains : int) ~(schedule : schedule)
    ~(inputs : (string * V.t) list) (env : Evalenv.env) (l : Exp.loop) : V.t =
  let n = Evalenv.eval_int ~inputs env l.Exp.size in
  let chunks = chunks_of ~domains ~schedule n in
  let parts =
    match chunks with
    | [] | [ _ ] ->
        (* empty or single chunk: evaluate sequentially *)
        [ Evalenv.eval ~inputs env (Exp.Loop l) ]
    | _ when schedule = Static ->
        let first, rest =
          match chunks with c :: cs -> (c, cs) | [] -> assert false
        in
        (* spawn one domain per extra chunk; run the first chunk here *)
        let spawned =
          List.map
            (fun r ->
              Domain.spawn (fun () -> Evalenv.eval ~inputs env (chunk_loop l r)))
            rest
        in
        let mine = Evalenv.eval ~inputs env (chunk_loop l first) in
        mine :: List.map Domain.join spawned
    | _ ->
        (* dynamic: a shared counter hands chunks to idle workers; results
           land in per-chunk slots so the merge order stays sequential *)
        let chunk_arr = Array.of_list chunks in
        let results = Array.make (Array.length chunk_arr) V.Vunit in
        let next = Atomic.make 0 in
        let worker () =
          let continue = ref true in
          while !continue do
            let i = Atomic.fetch_and_add next 1 in
            if i >= Array.length chunk_arr then continue := false
            else results.(i) <- Evalenv.eval ~inputs env (chunk_loop l chunk_arr.(i))
          done
        in
        let spawned = List.init (domains - 1) (fun _ -> Domain.spawn worker) in
        worker ();
        List.iter Domain.join spawned;
        Array.to_list results
  in
  merge_parts ~env ~inputs l ~nchunks:(List.length chunks)
    (List.mapi (fun i p -> (i, p)) parts)

(* Backoffs and injected straggler delays are real sleeps, capped so fault
   tests stay fast. *)
let capped_sleep s = Unix.sleepf (Float.min 2e-3 s)

(* Evaluate one loop under fault injection.  A shared queue hands chunks
   to workers regardless of [schedule] (the chunking itself still follows
   the policy, so partials — and hence merged values — match the healthy
   run bit for bit).  The calling domain is the master: it drains the
   queue too, is immune to injection (it models the driver, not an
   executor), and recomputes any chunk a dead worker left behind. *)
let run_loop_faulty ~(fault : Fault.t) ~(loop_no : int) ~(domains : int)
    ~(schedule : schedule) ~(inputs : (string * V.t) list) (env : Evalenv.env)
    (l : Exp.loop) : V.t =
  let n = Evalenv.eval_int ~inputs env l.Exp.size in
  let chunks = chunks_of ~domains ~schedule n in
  match chunks with
  | [] | [ _ ] -> Evalenv.eval ~inputs env (Exp.Loop l)
  | _ ->
      let spec = Fault.spec fault in
      let chunk_arr = Array.of_list chunks in
      let nres = Array.length chunk_arr in
      let results = Array.make nres V.Vunit in
      let done_ = Array.init nres (fun _ -> Atomic.make false) in
      let next = Atomic.make 0 in
      let eval_chunk i =
        results.(i) <- Evalenv.eval ~inputs env (chunk_loop l chunk_arr.(i));
        Atomic.set done_.(i) true
      in
      let worker ~immune () =
        let alive = ref true in
        while !alive do
          let i = Atomic.fetch_and_add next 1 in
          if i >= nres then alive := false
          else begin
            let rec attempt k =
              match
                if immune then Fault.Chunk_ok
                else Fault.chunk_fate fault ~loop:loop_no ~chunk:i ~attempt:k
              with
              | Fault.Chunk_ok -> eval_chunk i
              | Fault.Chunk_slow { slowdown } ->
                  (* injected straggler: a real (bounded) delay, then the
                     work — the master's speculative copy is not needed
                     in-process, the delay just exercises out-of-order
                     completion *)
                  capped_sleep (slowdown *. 1e-4);
                  eval_chunk i
              | Fault.Chunk_fail { transient }
                when transient && k < spec.M.max_retries ->
                  capped_sleep (Fault.backoff_s spec ~attempt:k);
                  attempt (k + 1)
              | Fault.Chunk_fail { transient } ->
                  (* permanent fault (or transient with retries exhausted):
                     this worker is dead; the chunk stays undone for the
                     master's lineage recovery after the join *)
                  raise
                    (Fault.Injected
                       { transient; site = Printf.sprintf "chunk %d of loop %d" i loop_no })
            in
            try attempt 0 with Fault.Injected _ -> alive := false
          end
        done
      in
      let spawned = List.init (domains - 1) (fun _ -> Domain.spawn (worker ~immune:false)) in
      worker ~immune:true ();
      List.iter Domain.join spawned;
      (* lineage recovery: any chunk a dead worker claimed but never
         finished is deterministically recomputed here — same range, same
         inputs, same value *)
      Array.iteri
        (fun i d ->
          if not (Atomic.get d) then begin
            Fault.check_replan "domains-recover" (chunk_loop l chunk_arr.(i));
            Fault.record_recovered fault;
            eval_chunk i
          end)
        done_;
      merge_parts ~env ~inputs l ~nchunks:nres
        (Array.to_list (Array.mapi (fun i v -> (i, v)) results))

let default_domains () = Stdlib.min 8 (Domain.recommended_domain_count ())

(* One spine loop, healthy or fault-injected. *)
let eval_loop ~domains ~schedule ~faults ~inputs ~loop_no env l =
  match faults with
  | None -> run_loop_healthy ~domains ~schedule ~inputs env l
  | Some fault -> run_loop_faulty ~fault ~loop_no ~domains ~schedule ~inputs env l

(* Snapshot every live spine binding plus the one just computed, with the
   driver's loop counter (DESIGN.md §11). *)
let take_checkpoint ~(store : Checkpoint.t) ~faults ~(chunks : int)
    ~(loop_no : int) (env : Evalenv.env) (sym : Sym.t option) (v : V.t) : unit =
  let name = match sym with Some s -> Sym.to_string s | None -> "result" in
  let bindings =
    Sym.Map.fold (fun s bv acc -> (Sym.to_string s, bv) :: acc) env []
    @ [ (name, v) ]
  in
  ignore
    (Checkpoint.record store ~at_loop:loop_no ~chunks ~bindings
       ~driver:[ ("loop_no", V.Vint loop_no) ]);
  match faults with Some f -> Fault.record_checkpoint f | None -> ()

(** Execute a program with outer multiloops parallelized across [domains]
    OCaml domains (default: the host's recommended domain count, capped at
    8 for container friendliness).  [?faults] arms deterministic fault
    injection with retry/backoff and lineage recovery (see {!Fault});
    [?checkpoint] snapshots the spine bindings at the store's cadence so a
    later {!run_with_recovery} can resume instead of replaying.

    [?obs] records one wall-clock span per spine loop (cat ["runtime"])
    and per checkpoint (cat ["phase"]); [?metrics] accumulates [loops]
    and [checkpoints] counts into the run's ledger (DESIGN.md §12). *)
let run ?obs ?metrics ?(domains = default_domains ()) ?(schedule = Static)
    ?faults ?checkpoint ?(inputs = []) (program : Exp.exp) : V.t =
  let bump key =
    match metrics with Some m -> Metrics.incr m key | None -> ()
  in
  let loop_no = ref 0 in
  Spine.exec ~inputs
    ~on_loop:(fun env sym l ->
      incr loop_no;
      let name = match sym with Some s -> Sym.to_string s | None -> "result" in
      let v =
        Span.with_span ?tracer:obs ~tid:Span.runtime_tid ~cat:"runtime"
          ~args:[ ("loop", Span.Int !loop_no) ]
          name
          (fun () ->
            eval_loop ~domains ~schedule ~faults ~inputs ~loop_no:!loop_no env
              l)
      in
      bump "loops";
      (match checkpoint with
      | Some store when Checkpoint.due store ~loop:!loop_no ->
          Span.with_span ?tracer:obs ~tid:Span.runtime_tid ~cat:"phase"
            ~args:[ ("at_loop", Span.Int !loop_no) ]
            "checkpoint"
            (fun () ->
              take_checkpoint ~store ~faults ~chunks:domains
                ~loop_no:!loop_no env sym v);
          bump "checkpoints"
      | _ -> ());
      v)
    program

exception Simulated_crash of int

(** Run [program] checkpointing at [store]'s cadence, simulate a driver
    crash once [crash_after] loops have completed, then recover and
    finish: from the latest {e verified} checkpoint when one exists —
    every spine binding the snapshot covers is restored (deep-copied)
    instead of recomputed — or by lineage replay of the whole spine when
    there is no usable snapshot (none taken, or checksum mismatch).  The
    recovery path taken is recorded on the injector.  Results are
    bit-identical to a healthy {!run} either way; only the work differs. *)
let run_with_recovery ?metrics ?(domains = default_domains ())
    ?(schedule = Static) ?faults ~(store : Checkpoint.t) ~(crash_after : int)
    ?(inputs = []) (program : Exp.exp) : V.t =
  let bump key =
    match metrics with Some m -> Metrics.incr m key | None -> ()
  in
  (* phase 1: the doomed attempt — checkpoints survive the crash *)
  let loop_no = ref 0 in
  (try
     ignore
       (Spine.exec ~inputs
          ~on_loop:(fun env sym l ->
            if !loop_no >= crash_after then raise (Simulated_crash !loop_no);
            incr loop_no;
            let v =
              eval_loop ~domains ~schedule ~faults ~inputs ~loop_no:!loop_no
                env l
            in
            (if Checkpoint.due store ~loop:!loop_no then
               take_checkpoint ~store ~faults ~chunks:domains
                 ~loop_no:!loop_no env sym v);
            v)
          program)
   with Simulated_crash _ -> ());
  (* phase 2: recovery *)
  match Checkpoint.restore store with
  | Checkpoint.Available snap ->
      (match faults with Some f -> Fault.record_restore f | None -> ());
      bump "snapshot_verifications";
      bump "restores";
      let loop_no = ref 0 in
      Spine.exec ~inputs
        ~on_loop:(fun env sym l ->
          incr loop_no;
          let restored =
            if !loop_no > snap.Checkpoint.at_loop then None
            else
              let name =
                match sym with Some s -> Sym.to_string s | None -> "result"
              in
              Option.map
                (fun (e : Checkpoint.entry) ->
                  Checkpoint.copy_value e.Checkpoint.value)
                (List.assoc_opt name snap.Checkpoint.bindings)
          in
          match restored with
          | Some v -> v
          | None ->
              eval_loop ~domains ~schedule ~faults ~inputs ~loop_no:!loop_no
                env l)
        program
  | Checkpoint.Corrupt msg ->
      Logs.warn (fun m ->
          m "Exec_domains: %s; replaying the whole spine from lineage" msg);
      (match faults with Some f -> Fault.record_replay f | None -> ());
      bump "snapshot_verifications";
      bump "replays";
      run ?metrics ~domains ~schedule ?faults ~inputs program
  | Checkpoint.None_taken ->
      (match faults with Some f -> Fault.record_replay f | None -> ());
      bump "replays";
      run ?metrics ~domains ~schedule ?faults ~inputs program
