(* The four workloads.  Each one makes its inputs from the seed, computes
   its references before any timing starts, and drives the public API:
   [Dmll.compile_with] / [Dmll.execute], [Proc_cluster.run] and
   [Net_cluster.run].  Why each workload exists is in README.md. *)

module V = Dmll_interp.Value
module Interp = Dmll_interp.Interp
module Prng = Dmll_util.Prng
module Span = Dmll_obs.Span
module Metrics = Dmll_obs.Metrics
module R = Dmll_runtime
module M = Dmll_machine.Machine
module Native = Dmll_backend.Native
module Apps = Dmll_apps
module Gaussian = Dmll_data.Gaussian
module H = Harness

type ctx = {
  seed : int;
  smoke : bool;  (** at most 10 timed jobs, small inputs *)
  setups : int;
  cache_root : string;  (** private kernel-cache root of this run *)
}

(* Timed jobs per workload.  Fixed counts, not a fixed duration, so two
   commits always do identical work; every full count leaves at least
   10 samples beyond p90. *)
let native_distinct ctx = if ctx.smoke then 2 else 100
let kmeans_jobs ctx = if ctx.smoke then 10 else 150
let q1_jobs ctx = if ctx.smoke then 10 else 110

(* Extra jobs the traced run makes off the job path. *)
let probes ctx = if ctx.smoke then 2 else 30

(* ------------------------------------------------------------------ *)
(* Shared helpers                                                      *)
(* ------------------------------------------------------------------ *)

(* Exact, or within 1e-6 relative where float partials merge in another
   order than the reference's. *)
let value_ok ~(reference : V.t) (v : V.t) : bool =
  V.equal reference v || V.approx_equal ~eps:1e-6 reference v

let floats_ok ~(reference : float array) (got : float array) : bool =
  Array.length reference = Array.length got
  && Array.for_all2
       (fun a b ->
         Float.equal a b
         || Float.abs (a -. b)
            <= 1e-6 *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b)))
       reference got

let seed_of (g : Prng.t) : int = Prng.int g 0x3FFFFFFF
let between (g : Prng.t) lo hi : int = lo + Prng.int g (hi - lo + 1)

let config target =
  Dmll.Config.(default |> with_target target)

let sum_breakdown (b : (string * float) list) : float =
  List.fold_left (fun acc (_, s) -> acc +. s) 0.0 b

(* Run [f] in a forked child and return its result.  References are
   computed this way so that the reference interpreter's allocations stay
   out of the workload process's heap peak. *)
let in_child (f : unit -> 'a) : 'a =
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let oc = Unix.out_channel_of_descr w in
      let res : ('a, string) result =
        match f () with v -> Ok v | exception e -> Error (Printexc.to_string e)
      in
      Marshal.to_channel oc res [];
      close_out oc;
      Unix._exit 0
  | pid -> (
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let res : ('a, string) result =
        Fun.protect
          ~finally:(fun () ->
            close_in_noerr ic;
            ignore (Unix.waitpid [] pid))
          (fun () -> Marshal.from_channel ic)
      in
      match res with Ok v -> v | Error m -> failwith ("reference: " ^ m))

let mismatch what = Printf.sprintf "%s: value differs from the reference" what

(* ------------------------------------------------------------------ *)
(* native-adhoc                                                        *)
(* ------------------------------------------------------------------ *)

type query = {
  label : string;
  program : Dmll_ir.Exp.exp;
  inputs : (string * V.t) list;
}

(* Size/parameter variants of the twelve applications, at most 4k rows,
   with a quota per family.  Member [j] of a family takes its main size
   from [size lo hi], the middle of the [j]-th of [quota] equal strata of
   [lo, hi], and keeps its other dimensions fixed: every seed then gets
   the same sizes and the same total input volume (the seed draws the
   values and the small parameters), so neither the job-time mix nor the
   heap changes from seed to seed.  Pagerank's quota of 4 enumerates its
   4 vertex counts. *)
type family = {
  fname : string;
  quota : int;
  make : Prng.t -> size:(int -> int -> int) -> query;
}

let families : family list =
  let open Apps in
  let f fname quota make = { fname; quota; make } in
  let gaussian g ~rows ~cols ~classes =
    Gaussian.generate ~seed:(seed_of g) ~rows ~cols ~classes ()
  in
  let q label program inputs = { label; program; inputs } in
  let graph g ~scale =
    Dmll_graph.Csr.of_edges
      (Dmll_data.Rmat.generate ~seed:(seed_of g) ~scale ~edge_factor:4 ())
  in
  let kmeans program g ~size =
    let rows = size 256 2048 and cols = 8 and k = between g 2 6 in
    let d = gaussian g ~rows ~cols ~classes:k in
    let centroids = Gaussian.random_centroids ~seed:(seed_of g) ~k d in
    q (Printf.sprintf "kmeans %dx%d k=%d" rows cols k) (program ~rows ~cols ~k ())
      (Kmeans.inputs d ~centroids)
  in
  let pagerank program g ~size =
    let gr = graph g ~scale:(size 5 8) in
    let nv = gr.Dmll_graph.Csr.nv in
    q (Printf.sprintf "pagerank nv=%d" nv) (program ~nv ())
      (Pagerank.inputs gr ~ranks:(Pagerank.initial_ranks gr))
  in
  [ f "kmeans" 13 (kmeans (fun ~rows ~cols ~k () -> Kmeans.program ~rows ~cols ~k ()));
    f "kmeans-groupby" 10
      (kmeans (fun ~rows ~cols ~k () -> Kmeans.program_groupby ~rows ~cols ~k ()));
    f "logreg" 13 (fun g ~size ->
        let rows = size 256 4096 and cols = 10 in
        let alpha = float_of_int (between g 1 100) *. 1e-3 in
        let d = gaussian g ~rows ~cols ~classes:2 in
        q (Printf.sprintf "logreg %dx%d alpha=%g" rows cols alpha)
          (Logreg.program ~rows ~cols ~alpha ())
          (Logreg.inputs d ~theta:(Array.make cols 0.1)));
    f "gda" 10 (fun g ~size ->
        let rows = size 256 4096 and cols = 8 in
        let d = gaussian g ~rows ~cols ~classes:2 in
        q (Printf.sprintf "gda %dx%d" rows cols) (Gda.program ~rows ~cols ())
          (Gda.inputs d));
    f "naive-bayes" 10 (fun g ~size ->
        let rows = size 256 4096 and cols = 8 in
        let d = gaussian g ~rows ~cols ~classes:(between g 2 5) in
        q (Printf.sprintf "naive-bayes %dx%d" rows cols)
          (Naive_bayes.program ~rows ~cols ()) (Naive_bayes.inputs d));
    f "ridge" 13 (fun g ~size ->
        let rows = size 256 4096 and cols = 10 in
        let alpha = float_of_int (between g 1 100) *. 1e-4 in
        let d = gaussian g ~rows ~cols ~classes:2 in
        q (Printf.sprintf "ridge %dx%d alpha=%g" rows cols alpha)
          (Ridge.program ~rows ~cols ~alpha ~lambda:0.1 ())
          (Ridge.inputs d ~theta:(Array.make cols 0.2)));
    f "knn" 10 (fun g ~size ->
        let train_rows = size 128 1024 and test_rows = 32 and cols = 6 in
        let train = gaussian g ~rows:train_rows ~cols ~classes:3 in
        let test = gaussian g ~rows:test_rows ~cols ~classes:3 in
        q (Printf.sprintf "knn %d/%d x%d" train_rows test_rows cols)
          (Knn.program ~train_rows ~test_rows ~cols ())
          (Knn.inputs ~train ~test));
    f "gibbs" 10 (fun g ~size ->
        let nvars = size 64 1024 and replicas = 2 in
        let module Fg = Dmll_data.Factor_graph in
        let fg = Fg.generate ~seed:(seed_of g) ~vars:nvars ~factors:(3 * nvars) () in
        q (Printf.sprintf "gibbs %d x%d" nvars replicas)
          (Gibbs.program ~nvars ~replicas ())
          (Gibbs.inputs fg
             ~state:(Fg.initial_state ~seed:(seed_of g) fg)
             ~rand:(Fg.sweep_randoms ~seed:(seed_of g) ~sweeps:replicas fg)));
    f "pagerank-pull" 4 (pagerank (fun ~nv () -> Pagerank.program_pull ~nv ()));
    f "pagerank-push" 4 (pagerank (fun ~nv () -> Pagerank.program_push ~nv ()));
    f "tpch-q1" 1 (fun g ~size ->
        let t = Dmll_data.Tpch.generate ~seed:(seed_of g) ~rows:(size 2000 2400) () in
        q "tpch-q1" (Tpch_q1.program ()) (Tpch_q1.aos_inputs t @ Tpch_q1.soa_inputs t));
    f "gene" 1 (fun g ~size ->
        let r =
          Dmll_data.Genes.generate ~seed:(seed_of g) ~reads:(size 2000 2400)
            ~barcodes:50 ()
        in
        q "gene" (Gene.program ()) (Gene.aos_inputs r @ Gene.soa_inputs r));
    f "tricount" 1 (fun g ~size:_ ->
        let gr =
          Dmll_graph.Csr.of_edges
            (Dmll_data.Rmat.symmetrize
               (Dmll_data.Rmat.generate ~seed:(seed_of g) ~scale:6
                  ~edge_factor:3 ()))
        in
        q "tricount" (Tricount.program ()) (Tricount.inputs gr));
  ]

(* Draw member [j] of family [fam], redrawing until its compiled program
   has a kernel-cache key no earlier query has, so that every first-seen
   query is a genuine miss.  A set-up query takes the lower edge of its
   stratum instead of the middle, so it never repeats a pool query. *)
let draw_distinct ?(setup = false) ~(cfg : Dmll.Config.t) (g : Prng.t) ~keys (fam : family)
    (j : int) : query =
  let size lo hi =
    let width = hi - lo + 1 in
    lo + ((((2 * j) + if setup then 0 else 1) * width) / (2 * fam.quota))
  in
  let rec go attempt =
    if attempt > 50 then failwith ("native-adhoc: cannot draw a distinct " ^ fam.fname);
    let q = fam.make g ~size in
    let key = Native.cache_key (Dmll.compile_with cfg q.program).Dmll.final in
    if Hashtbl.mem keys key then go (attempt + 1)
    else begin
      Hashtbl.add keys key ();
      q
    end
  in
  go 0

(* The pool: every family's quota (100 queries; the first [n] in family
   order for a smaller pool), in family order.  The set-up queries come
   from the large families and never repeat a pool query. *)
let native_queries ctx ~cfg : query array * query array =
  let g = Prng.create ctx.seed in
  let keys = Hashtbl.create 128 in
  let slots =
    List.concat_map (fun fam -> List.init fam.quota (fun j -> (fam, j))) families
    |> List.filteri (fun i _ -> i < native_distinct ctx)
  in
  let pool = Array.of_list (List.map (fun (fam, j) -> draw_distinct ~cfg g ~keys fam j) slots) in
  let large = List.filter (fun fam -> fam.quota >= 10) families in
  let setup =
    Array.init ctx.setups (fun k ->
        draw_distinct ~setup:true ~cfg g ~keys (List.nth large (k mod List.length large)) k)
  in
  (pool, setup)

let native_adhoc ctx : H.instance =
  if not (Lazy.force Native.Jit.available) then
    failwith "native-adhoc needs the Dynlink JIT: ocamlfind ocamlopt and a native build";
  let cfg =
    config Dmll.Native |> Dmll.Config.with_kernel_cache_dir ctx.cache_root
  in
  let pool, setup_queries = native_queries ctx ~cfg in
  let reference (q : query) = Interp.run ~inputs:q.inputs q.program in
  let refs, setup_refs =
    in_child (fun () -> (Array.map reference pool, Array.map reference setup_queries))
  in
  let distinct = Array.length pool in
  (* four copies of every query in one shuffled order: each query's first
     appearance misses the kernel cache, the other three hit it.  The
     order is the same for every seed: the GC's high-water mark depends on
     the sequence of input sizes, and a seeded order moved peak_heap_mb by
     up to 8% from seed to seed. *)
  let order = Array.init (4 * distinct) (fun i -> i mod distinct) in
  Prng.shuffle (Prng.create 1) order;
  let compiled = Array.make distinct None in
  let ledger = Metrics.create () in
  let cache = Dmll.Backends.cache_for (Some ctx.cache_root) in
  let setup k =
    let q = setup_queries.(k) in
    let r, wall =
      H.timed "setup" (fun () ->
          Dmll.execute cfg (Dmll.compile_with cfg q.program) ~inputs:q.inputs)
    in
    { H.wall; ok = value_ok ~reference:setup_refs.(k) r.Dmll.value }
  in
  let job ~tracer i =
    let qi = order.(i) in
    let q = pool.(qi) in
    let (c, r), wall =
      match tracer with
      | None ->
          let cfg = Dmll.Config.with_metrics ledger cfg in
          H.timed "job" (fun () ->
              let c = Dmll.compile_with cfg q.program in
              (c, Dmll.execute cfg c ~inputs:q.inputs))
      | Some tr ->
          (* the same work split at its public seams: the explicit
             kernel_for resolves (or builds) the kernel that execute
             then finds linked *)
          let cfg = Dmll.Config.with_tracer tr cfg in
          let span name f = fst (H.timed ~tracer:tr name f) in
          H.timed ~tracer:tr
            ~args:(fun _ -> [ ("query", Span.Int qi) ])
            "job"
            (fun () ->
              let c = span "core.compile" (fun () -> Dmll.compile_with cfg q.program) in
              ignore
                (fst
                   (H.timed ~tracer:tr
                      ~args:(fun (_, src) ->
                        [ ("query", Span.Int qi);
                          ("miss", Span.Bool (src = Native.Jit.Compiled)) ])
                      "native.kernel_for"
                      (fun () ->
                        Native.Jit.kernel_for ~cache ~metrics:ledger ~tracer:tr
                          c.Dmll.final)));
              (c, span "native.execute" (fun () -> Dmll.execute cfg c ~inputs:q.inputs)))
    in
    (* kept for the per-layer probes only, so that the untraced run's heap
       peak holds none of the benchmark's own bookkeeping *)
    if Option.is_some tracer && Option.is_none compiled.(qi) then compiled.(qi) <- Some c;
    { H.wall; ok = value_ok ~reference:refs.(qi) r.Dmll.value }
  in
  (* per distinct query a traced job ran, off the job path: emit, ILP
     plan analysis, input marshal and one kernel call *)
  let layers tr =
    let emit_s = Hashtbl.create distinct in
    Array.iteri
      (fun qi c ->
        match c with
        | None -> ()
        | Some (c : Dmll.compiled) ->
            let key = Native.cache_key c.Dmll.final in
            let _, dt =
              H.timed ~tracer:tr ~args:(fun s -> [ ("bytes", Span.Int (String.length s)) ])
                "codegen_ocaml.emit"
                (fun () -> Dmll_backend.Codegen_ocaml.emit_kernel ~key c.Dmll.final)
            in
            Hashtbl.replace emit_s qi dt;
            ignore
              (H.timed ~tracer:tr "analysis.plan_ilp" (fun () ->
                   Dmll_analysis.Plan.analyze c.Dmll.generic));
            let kernel, _ = Native.Jit.kernel_for ~cache c.Dmll.final in
            let blob, _ =
              H.timed ~tracer:tr "native.input_marshal" (fun () ->
                  Marshal.to_string pool.(qi).inputs [])
            in
            ignore (H.timed ~tracer:tr "native.kernel_run" (fun () -> kernel blob)))
      compiled;
    let kernel_for miss = H.spans tr "native.kernel_for" ~where:(H.arg_is "miss" miss) in
    let builds =
      List.map
        (fun s ->
          (s.Span.dur_us /. 1e6)
          -. Hashtbl.find emit_s (int_of_float (H.arg_float s "query")))
        (kernel_for true)
    in
    let profile = Span.profile tr in
    let self_s name =
      match List.assoc_opt name profile with
      | Some st when st.Span.count > 0 ->
          st.Span.self_us /. 1e6 /. float_of_int st.Span.count
      | _ -> 0.0
    in
    let hit = Catalogue.read ledger "kernel_cache_hit"
    and miss = Catalogue.read ledger "kernel_cache_miss" in
    let med name = H.median (H.seconds (H.spans tr name)) in
    [ ("core.compile_s", med "core.compile");
      ("opt.generic_optimize_s", self_s "generic-optimize");
      ("analysis.partition_s", med "partition-analyze");
      ("analysis.plan_ilp_s", med "analysis.plan_ilp");
      ("codegen_ocaml.emit_s", med "codegen_ocaml.emit");
      ( "codegen_ocaml.source_kb",
        H.median
          (List.map
             (fun s -> H.arg_float s "bytes" /. 1024.0)
             (H.spans tr "codegen_ocaml.emit")) );
      ("native.kernel_build_s", H.median builds);
      ("native.kernel_lookup_s", H.median (H.seconds (kernel_for false)));
      ("kernel_cache.hit_ratio", hit /. (hit +. miss));
      ("native.input_marshal_s", med "native.input_marshal");
      ("native.kernel_run_s", med "native.kernel_run");
      ("native.execute_s", med "native.execute");
    ]
  in
  let problems () =
    let totals = Catalogue.totals () in
    Catalogue.add totals ledger;
    let expect key n =
      let got = int_of_float (Catalogue.total totals key) in
      if got = n then []
      else [ Printf.sprintf "%s = %d on native-adhoc, expected exactly %d" key got n ]
    in
    Catalogue.silent_zeros totals ~workload:"native-adhoc"
    @ expect "kernel_cache_miss" distinct
    @ expect "kernel_cache_hit" (3 * distinct)
  in
  { H.jobs = Array.length order; setup; job; layers; problems }

(* ------------------------------------------------------------------ *)
(* kmeans (shared by kmeans-seq and kmeans-proc)                       *)
(* ------------------------------------------------------------------ *)

type kmeans = {
  rows : int;
  cols : int;
  k : int;
  program : Dmll_ir.Exp.exp;
  sets : (string * V.t) list array;  (** 8 centroid sets over one matrix *)
  refs : float array array;  (** Kmeans.handopt of each set *)
  handopt : int -> float array;
}

let kmeans_data ctx : kmeans =
  let rows = if ctx.smoke then 4_000 else 20_000 and cols = 20 and k = 10 in
  let g = Prng.create ctx.seed in
  let d = Gaussian.generate ~seed:(seed_of g) ~rows ~cols ~classes:k () in
  let centroids =
    Array.init 8 (fun _ -> Gaussian.random_centroids ~seed:(seed_of g) ~k d)
  in
  let handopt i =
    Apps.Kmeans.handopt ~data:d.Gaussian.data ~rows ~cols ~k ~centroids:centroids.(i)
  in
  { rows; cols; k;
    program = Apps.Kmeans.program ~rows ~cols ~k ();
    sets = Array.map (fun c -> Apps.Kmeans.inputs d ~centroids:c) centroids;
    refs = Array.init 8 handopt;
    handopt;
  }

let kmeans_ok (km : kmeans) i (v : V.t) : bool =
  floats_ok ~reference:km.refs.(i mod 8) (Apps.Kmeans.result_to_flat v ~cols:km.cols)

let kmeans_seq ctx : H.instance =
  let km = kmeans_data ctx in
  let cfg = config Dmll.Sequential in
  let compiled = ref None in
  let setup _ =
    let (c, r), wall =
      H.timed "setup" (fun () ->
          let c = Dmll.compile_with cfg km.program in
          (c, Dmll.execute cfg c ~inputs:km.sets.(0)))
    in
    compiled := Some c;
    { H.wall; ok = kmeans_ok km 0 r.Dmll.value }
  in
  let job ~tracer i =
    let c = Option.get !compiled in
    let inputs = km.sets.(i mod 8) in
    let v, wall =
      match tracer with
      | None -> H.timed "job" (fun () -> (Dmll.execute cfg c ~inputs).Dmll.value)
      | Some tr ->
          (* what the closure backend's execute does, one seam apart *)
          H.timed ~tracer:tr "job" (fun () ->
              let exe, _ =
                H.timed ~tracer:tr "closure.compile" (fun () ->
                    Dmll_backend.Closure.compile c.Dmll.final)
              in
              fst
                (H.timed ~tracer:tr "closure.run" (fun () ->
                     exe.Dmll_backend.Closure.run ~inputs ())))
    in
    { H.wall; ok = kmeans_ok km i v }
  in
  let layers tr =
    for i = 1 to 16 do
      ignore (H.timed ~tracer:tr "kmeans.handopt" (fun () -> km.handopt (i mod 8)))
    done;
    let med name = H.median (H.seconds (H.spans tr name)) in
    [ ("closure.compile_s", med "closure.compile");
      ("closure.run_s", med "closure.run");
      ("closure.vs_handopt", med "closure.run" /. med "kmeans.handopt");
    ]
  in
  { H.jobs = kmeans_jobs ctx; setup; job; layers; problems = (fun () -> []) }

(* Transient worker kills only, no stragglers.  A seeded fifth of the
   jobs each carry exactly one SIGKILL, so that on every seed p50 is a
   healthy job and p90 a recovered one.  The kill always lands on the
   first dispatch of a chunk of the job's heaviest loop, the faulted jobs
   taking the chunks in turn: a kill in kmeans' small final loop costs
   almost nothing, and a seeded share of such kills would move p90 from
   seed to seed. *)
let faulted_jobs ctx n : int option array =
  let a = Array.init n (fun i -> i < n / 5) in
  Prng.shuffle (Prng.create (ctx.seed + 2)) a;
  let k = ref 0 in
  Array.map
    (fun faulted ->
      if faulted then begin
        incr k;
        Some !k
      end
      else None)
    a

(* The injector of the [k]-th faulted job of job [i]: the first fault
   seed, counting up from one derived from (seed, i), whose schedule over
   the job's [loops] x [workers] dispatches kills exactly the worker of
   ([kill_loop], chunk k mod workers) by SIGKILL and fails no worker-side
   chunk attempt. *)
let one_kill ctx ~loops ~kill_loop ~workers ~k (i : int) : R.Fault.t =
  let spec fault_seed =
    { M.default_faults with
      M.fault_seed;
      crash_prob = 0.05;
      crash_transient_frac = 1.0;
      straggler_prob = 0.0;
    }
  in
  let sites =
    List.concat_map
      (fun loop -> List.init workers (fun chunk -> (loop, chunk)))
      (List.init loops (fun l -> l + 1))
  in
  let target = (kill_loop, k mod workers) in
  let kills_target s =
    let f = R.Fault.create (spec s) in
    List.for_all
      (fun ((loop, chunk) as site) ->
        (match R.Fault.proc_fate f ~loop ~chunk with
        | R.Fault.Proc_ok -> site <> target
        | R.Fault.Proc_kill { close_pipe = false; _ } -> site = target
        | _ -> false)
        && List.for_all
             (fun attempt -> R.Fault.chunk_fate f ~loop ~chunk ~attempt = R.Fault.Chunk_ok)
             [ 0; 1; 2 ])
      sites
  in
  let rec find s = if kills_target s then s else find (s + 1) in
  R.Fault.create (spec (find ((ctx.seed * 1_000_003) + (i * 1_009))))

let proc_config ?tracer ?faults workers =
  { R.Proc_cluster.default_config with
    R.Proc_cluster.workers;
    faults;
    obs = tracer;
  }

let kmeans_proc ctx : H.instance =
  let km = kmeans_data ctx in
  let cfg = config (Dmll.Proc_cluster (proc_config 2)) in
  let compiled = ref None in
  let totals = Catalogue.totals () in
  let kills = ref 0 and replans = ref 0 and recovered = ref 0 in
  let probe_failures = ref [] in
  let final () = (Option.get !compiled).Dmll.final in
  let faulted = faulted_jobs ctx (kmeans_jobs ctx) in
  let loops = ref 0 and heaviest = ref 0 in
  let setup _ =
    let (c, r), wall =
      H.timed "setup" (fun () ->
          let c = Dmll.compile_with cfg km.program in
          (c, R.Proc_cluster.run ~config:(proc_config 2) ~inputs:km.sets.(0) c.Dmll.final))
    in
    compiled := Some c;
    let secs = List.map snd r.R.Proc_cluster.breakdown in
    loops := List.length secs;
    (* loops are numbered from 1 in execution order *)
    heaviest :=
      1 + Option.get (List.find_index (Float.equal (List.fold_left Float.max 0.0 secs)) secs);
    { H.wall; ok = kmeans_ok km 0 r.R.Proc_cluster.value }
  in
  let job ~tracer i =
    let faults =
      Option.map
        (fun k -> one_kill ctx ~loops:!loops ~kill_loop:!heaviest ~workers:2 ~k i)
        faulted.(i)
    in
    let config = proc_config ?tracer ?faults 2 in
    let r, wall =
      H.timed ?tracer
        ~args:(fun (r : R.Proc_cluster.result) ->
          [ ("faulted", Span.Bool (r.R.Proc_cluster.stats.R.Proc_cluster.killed > 0));
            ("loop_s", Span.Float (sum_breakdown r.R.Proc_cluster.breakdown));
          ])
        "job"
        (fun () -> R.Proc_cluster.run ~config ~inputs:km.sets.(i mod 8) (final ()))
    in
    let s = r.R.Proc_cluster.stats in
    kills := !kills + s.R.Proc_cluster.killed;
    replans := !replans + s.R.Proc_cluster.replans;
    recovered := !recovered + s.R.Proc_cluster.recovered_chunks;
    Catalogue.add totals r.R.Proc_cluster.metrics;
    { H.wall; ok = kmeans_ok km i r.R.Proc_cluster.value }
  in
  let layers tr =
    for i = 1 to probes ctx do
      let r, _ =
        H.timed ~tracer:tr "proc_cluster.run_1w" (fun () ->
            R.Proc_cluster.run ~config:(proc_config ~tracer:tr 1)
              ~inputs:km.sets.(i mod 8) (final ()))
      in
      if not (kmeans_ok km i r.R.Proc_cluster.value) then
        probe_failures := mismatch "kmeans at 1 worker" :: !probe_failures
    done;
    let jobs = H.spans tr "job" in
    let faulted = H.spans tr "job" ~where:(H.arg_is "faulted" true) in
    let healthy = H.seconds (H.spans tr "job" ~where:(H.arg_is "faulted" false)) in
    let loop s = H.arg_float s "loop_s" in
    let one_worker = H.median (H.seconds (H.spans tr "proc_cluster.run_1w")) in
    let n = float_of_int (kmeans_jobs ctx) in
    [ ("proc_cluster.loop_s", H.median (List.map loop jobs));
      ( "proc_cluster.spawn_reap_s",
        H.median (List.map (fun s -> (s.Span.dur_us /. 1e6) -. loop s) jobs) );
      ("proc_cluster.tasks_per_job", Catalogue.total totals "proc_tasks" /. n);
      ("proc_cluster.kills", float_of_int !kills);
      ("proc_cluster.replans", float_of_int !replans);
      ("proc_cluster.recovered_chunks", float_of_int !recovered);
      ("proc_cluster.recovery_s", H.median (H.seconds faulted) -. H.median healthy);
      ("proc_cluster.job_s_1w", one_worker);
      ("proc_cluster.scaling_2w", one_worker /. H.median healthy);
    ]
  in
  let problems () =
    Catalogue.silent_zeros totals ~workload:"kmeans-proc" @ !probe_failures
  in
  { H.jobs = kmeans_jobs ctx; setup; job; layers; problems }

(* ------------------------------------------------------------------ *)
(* q1-net                                                              *)
(* ------------------------------------------------------------------ *)

let net_config ?tracer () =
  { R.Net_cluster.default_config with R.Net_cluster.workers = 2; obs = tracer }

(* [n] write_frame + read_frame round trips of [msg] to a forked child
   that echoes every frame back over a socketpair. *)
let frame_roundtrips tr (msg : (string * V.t) list) (n : int) : unit =
  let mine, theirs = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.fork () with
  | 0 ->
      Unix.close mine;
      (try
         while true do
           match (R.Transport.read_frame theirs : (string * V.t) list option) with
           | Some _ as m -> R.Transport.write_frame theirs m
           | None -> raise Exit
         done
       with _ -> ());
      Unix._exit 0
  | pid ->
      Unix.close theirs;
      Fun.protect
        ~finally:(fun () ->
          (try R.Transport.write_frame mine (None : (string * V.t) list option)
           with _ -> ());
          Unix.close mine;
          ignore (Unix.waitpid [] pid))
        (fun () ->
          for _ = 1 to n do
            ignore
              (H.timed ~tracer:tr "transport.frame_roundtrip" (fun () ->
                   R.Transport.write_frame mine (Some msg);
                   (R.Transport.read_frame mine : (string * V.t) list option)))
          done)

let q1_net ctx : H.instance =
  let rows = if ctx.smoke then 2_000 else 20_000 in
  let t = Dmll_data.Tpch.generate ~seed:(seed_of (Prng.create ctx.seed)) ~rows () in
  let inputs = Apps.Tpch_q1.aos_inputs t @ Apps.Tpch_q1.soa_inputs t in
  let program = Apps.Tpch_q1.program () in
  let reference = in_child (fun () -> Interp.run ~inputs program) in
  let cfg = config (Dmll.Net_cluster (net_config ())) in
  let compiled = ref None in
  let totals = Catalogue.totals () in
  let probe_failures = ref [] in
  let final () = (Option.get !compiled).Dmll.final in
  let setup _ =
    let (c, r), wall =
      H.timed "setup" (fun () ->
          let c = Dmll.compile_with cfg program in
          (c, R.Net_cluster.run ~config:(net_config ()) ~inputs c.Dmll.final))
    in
    compiled := Some c;
    { H.wall; ok = value_ok ~reference r.R.Net_cluster.value }
  in
  let job ~tracer _ =
    let r, wall =
      H.timed ?tracer
        ~args:(fun (r : R.Net_cluster.result) ->
          [ ("loop_s", Span.Float (sum_breakdown r.R.Net_cluster.breakdown)) ])
        "job"
        (fun () -> R.Net_cluster.run ~config:(net_config ?tracer ()) ~inputs (final ()))
    in
    Catalogue.add totals r.R.Net_cluster.metrics;
    { H.wall; ok = value_ok ~reference r.R.Net_cluster.value }
  in
  let layers tr =
    for _ = 1 to probes ctx do
      let r, _ =
        H.timed ~tracer:tr "proc_cluster.run_q1" (fun () ->
            R.Proc_cluster.run ~config:(proc_config ~tracer:tr 2) ~inputs (final ()))
      in
      if not (value_ok ~reference r.R.Proc_cluster.value) then
        probe_failures := mismatch "Q1 on Proc_cluster" :: !probe_failures
    done;
    let rounds = if ctx.smoke then 2 else 10 in
    frame_roundtrips tr inputs rounds;
    let blob = Marshal.to_bytes inputs [] in
    for _ = 1 to rounds do
      ignore (H.timed ~tracer:tr "transport.crc32" (fun () -> R.Transport.crc32 blob))
    done;
    let jobs = H.spans tr "job" in
    let loop s = H.arg_float s "loop_s" in
    let n = float_of_int (q1_jobs ctx) in
    let per_job key = Catalogue.total totals key /. n in
    let med name = H.median (H.seconds (H.spans tr name)) in
    [ ("net_cluster.loop_s", H.median (List.map loop jobs));
      ( "net_cluster.connect_ship_s",
        H.median (List.map (fun s -> (s.Span.dur_us /. 1e6) -. loop s) jobs) );
      ("net_cluster.bytes_out_per_job", per_job "net_bytes_out");
      ("net_cluster.bytes_in_per_job", per_job "net_bytes_in");
      (* the Welcome frame carries the inputs but is written before the
         connection is counted, so the bench adds it up itself *)
      ( "net_cluster.welcome_bytes_per_job",
        per_job "net_connects" *. float_of_int (Bytes.length blob) );
      ("net_cluster.vs_proc_s", H.median (H.seconds jobs) -. med "proc_cluster.run_q1");
      ("transport.frame_roundtrip_s", med "transport.frame_roundtrip");
      ( "transport.crc32_mb_s",
        float_of_int (Bytes.length blob) /. 1e6 /. med "transport.crc32" );
    ]
  in
  let problems () = Catalogue.silent_zeros totals ~workload:"q1-net" @ !probe_failures in
  { H.jobs = q1_jobs ctx; setup; job; layers; problems }

let prepare (name : string) ctx : H.instance =
  match name with
  | "native-adhoc" -> native_adhoc ctx
  | "kmeans-seq" -> kmeans_seq ctx
  | "kmeans-proc" -> kmeans_proc ctx
  | "q1-net" -> q1_net ctx
  | _ -> invalid_arg ("unknown workload " ^ name)
