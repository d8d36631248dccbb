(* Tests of the backend seam (DESIGN.md §17): the registry round-trip
   (every target resolves through the same string-keyed store, duplicate
   ids fail loudly, re-registration is idempotent), the --explain
   backends JSON golden schema, the content-addressed kernel cache
   (alpha-invariant keys, memory/disk tiers, atomic commit, corrupt and
   torn entries rejected and recompiled), cache hit/miss determinism on
   the twelve apps (the second execution of an identical plan does zero
   codegen and zero compilation, its value is bit-identical, and no
   execute changes its inputs), an in-place vector reduce leaving its
   init input unchanged, a committed artifact that is no
   loadable plugin evicted and rebuilt, a native execute binding and
   running its staged kernel exactly once and reporting the wall-clock
   of the call (kernel build included) as its seconds, and a QCheck
   property that the Dynlink JIT computes the interpreter's value on
   random programs. *)

open Dmll_ir
module Backend = Dmll_backend
module B = Backend.Backend
module Registry = Backend.Registry
module Cache = Backend.Kernel_cache
module Native = Backend.Native
module V = Dmll_interp.Value
module Interp = Dmll_interp.Interp
module Metrics = Dmll_obs.Metrics

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tstr = Alcotest.string
let tids = Alcotest.(list string)

let () = Dmll.Backends.ensure_registered ()

(* Registry.ids sorts, so this is the golden order. *)
let expected_ids =
  [ "closure"; "multicore"; "native"; "net-cluster"; "proc-cluster";
    "sim-cluster"; "sim-gpu"; "sim-numa" ]

(* A fresh private cache root per test: hit/miss accounting must never
   leak between tests (or from a previous run of the suite).  All roots
   are removed when the suite exits — the hygiene this PR is about. *)
let roots : string list ref = ref []
let () = at_exit (fun () -> List.iter Cache.rm_rf !roots)

let fresh_root () =
  let f = Filename.temp_file "dmll-seam-cache" "" in
  Sys.remove f;
  roots := f :: !roots;
  f

let write_file path payload =
  let oc = open_out_bin path in
  output_string oc payload;
  close_out oc

(* ---------------------- registry round-trip --------------------------- *)

let no_caps =
  { B.wall_clock = false;
    parallel = false;
    distributed = false;
    fault_injection = false;
    checkpointing = false;
    mem_budget = false;
    emits_source = false;
    cacheable_kernels = false;
  }

let fake_backend fid : (module B.S) =
  (module struct
    let id = fid
    let describe = "test stub"
    let capabilities = no_caps
    let plan _ = B.default_plan
    let emit _ _ = None
    let execute _ _ _ = failwith "stub backend executed"
  end)

let test_registry_roundtrip () =
  check tids "all backends registered" expected_ids (Registry.ids ());
  List.iter
    (fun id ->
      match Registry.find id with
      | None -> Alcotest.failf "backend %s not found" id
      | Some b ->
          let module Bx = (val b : B.S) in
          check tstr "module id matches its registry key" id Bx.id)
    expected_ids;
  (* re-registering the same module is idempotent *)
  (match Registry.find "closure" with
  | Some b -> Registry.register b
  | None -> Alcotest.fail "closure backend missing");
  check tids "re-register changes nothing" expected_ids (Registry.ids ());
  (* a different module fighting over a taken id fails loudly *)
  check tbool "duplicate id raises" true
    (match Registry.register (fake_backend "closure") with
    | () -> false
    | exception Registry.Duplicate_id "closure" -> true
    | exception _ -> false);
  (* ensure_registered is callable any number of times *)
  Dmll.Backends.ensure_registered ();
  check tids "registry stable after re-ensure" expected_ids (Registry.ids ())

let test_target_resolution () =
  let open Dmll in
  let cases =
    [ (Sequential, "closure");
      (Multicore 2, "multicore");
      ( Numa
          { Dmll_runtime.Sim_numa.machine = Dmll_machine.Machine.stanford_numa;
            threads = 4;
            mode = Dmll_runtime.Sim_numa.Numa_aware;
          },
        "sim-numa" );
      (Gpu { Dmll_runtime.Sim_gpu.transpose = true; row_to_column = true },
       "sim-gpu");
      (Cluster Dmll_runtime.Sim_cluster.default_config, "sim-cluster");
      (Proc_cluster Dmll_runtime.Proc_cluster.default_config, "proc-cluster");
      (Net_cluster Dmll_runtime.Net_cluster.default_config, "net-cluster");
      (Native, "native");
    ]
  in
  List.iter
    (fun (target, id) ->
      check tstr "target maps to its backend id" id
        (Dmll.Backends.id_of_target target);
      check tbool "and that id resolves in the registry" true
        (Registry.find id <> None))
    cases;
  (* the human table mentions every backend *)
  let table = Registry.describe_table () in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun id -> check tbool ("describe_table lists " ^ id) true (contains table id))
    expected_ids

(* ---------------- capability golden JSON schema ----------------------- *)

open Dmll_testgen.Json_check

let cap_keys =
  [ "wall_clock"; "parallel"; "distributed"; "fault_injection";
    "checkpointing"; "mem_budget"; "emits_source"; "cacheable_kernels" ]

let test_registry_json_schema () =
  let doc = parse (Registry.to_json ()) in
  check tids "top-level keys" [ "backends" ] (keys_of doc);
  let backends = arr (field doc "backends") in
  check tids "every backend present, sorted" expected_ids
    (List.map (fun b -> str (field b "id")) backends);
  List.iter
    (fun b ->
      check tids "entry keys" [ "id"; "describe"; "capabilities" ] (keys_of b);
      check tbool "describe is non-empty" true
        (String.length (str (field b "describe")) > 0);
      let caps = field b "capabilities" in
      check tids "exactly the eight capability flags" cap_keys (keys_of caps);
      List.iter (fun k -> ignore (boolean (field caps k))) cap_keys)
    backends;
  let cap_of id k =
    let b = List.find (fun b -> String.equal (str (field b "id")) id) backends in
    boolean (field (field b "capabilities") k)
  in
  (* spot-check the contract the driver relies on *)
  check tbool "native caches kernels" true (cap_of "native" "cacheable_kernels");
  check tbool "native emits source" true (cap_of "native" "emits_source");
  check tbool "native reports wall time" true (cap_of "native" "wall_clock");
  check tbool "closure emits nothing" false (cap_of "closure" "emits_source");
  check tbool "closure caches nothing" false (cap_of "closure" "cacheable_kernels");
  check tbool "sim-cluster is distributed" true (cap_of "sim-cluster" "distributed");
  check tbool "sim-cluster clock is modeled" false (cap_of "sim-cluster" "wall_clock");
  check tbool "sim-cluster honors memory budgets" true (cap_of "sim-cluster" "mem_budget");
  check tbool "net-cluster injects faults" true (cap_of "net-cluster" "fault_injection");
  check tbool "proc-cluster is distributed" true (cap_of "proc-cluster" "distributed");
  check tbool "sim-gpu emits source" true (cap_of "sim-gpu" "emits_source")

(* ------------------------ cache key hygiene --------------------------- *)

(* Two calls mint fresh gensyms, so the programs are alpha-equivalent but
   textually different — the canonical blob must erase the difference. *)
let letchain (k : int) : Exp.exp =
  let x = Sym.fresh ~name:"x" Types.Int in
  let y = Sym.fresh ~name:"y" Types.Int in
  Exp.Let
    (x, Exp.Const (Exp.Cint k),
     Exp.Let (y, Exp.Var x, Exp.Tuple [ Exp.Var x; Exp.Var y ]))

let test_cache_key () =
  let key = Cache.key ~backend_id:"native" ~caps_fp:"fp" in
  check tstr "alpha-equivalent programs share a key" (key (letchain 7))
    (key (letchain 7));
  check tbool "a different constant changes the key" true
    (key (letchain 7) <> key (letchain 8));
  check tbool "the backend id is part of the key" true
    (Cache.key ~backend_id:"native" ~caps_fp:"fp" (letchain 7)
    <> Cache.key ~backend_id:"other" ~caps_fp:"fp" (letchain 7));
  check tbool "the capability fingerprint is part of the key" true
    (Cache.key ~backend_id:"native" ~caps_fp:"fp" (letchain 7)
    <> Cache.key ~backend_id:"native" ~caps_fp:"fp2" (letchain 7));
  let m = Cache.module_name_of_key (key (letchain 7)) in
  check tbool "module name is a valid compilation unit" true
    (String.length m > 0
    && m.[0] = 'D'
    && String.for_all
         (fun c ->
           (c >= 'a' && c <= 'z')
           || (c >= 'A' && c <= 'Z')
           || (c >= '0' && c <= '9')
           || c = '_')
         m)

(* ---------------------- cache tiers and commit ------------------------ *)

let store_payload cache ~key payload =
  Cache.store cache ~key ~source:"(* generated *)"
    ~artifact:"a.bin"
    ~build:(fun ~dir ->
      write_file (Filename.concat dir "a.bin") payload;
      Ok ())
    ()

let entry_of = function
  | Ok (e : Cache.entry) -> e
  | Error m -> Alcotest.failf "store failed: %s" m

let test_cache_tiers () =
  let cache = Cache.create ~root:(fresh_root ()) () in
  let e = entry_of (store_payload cache ~key:"k1" "payload-1") in
  check tstr "artifact committed with its payload" "payload-1"
    (Cache.read_all e.Cache.artifact);
  (match Cache.find cache "k1" with
  | Some (_, Cache.Memory) -> ()
  | Some (_, Cache.Disk) -> Alcotest.fail "fresh store should hit memory"
  | None -> Alcotest.fail "stored entry not found");
  Cache.drop_memory cache;
  check tint "memory dropped" 0 (Cache.memory_size cache);
  (match Cache.find cache "k1" with
  | Some (e2, Cache.Disk) ->
      check tstr "disk tier returns the committed artifact" "payload-1"
        (Cache.read_all e2.Cache.artifact)
  | Some (_, Cache.Memory) -> Alcotest.fail "memory tier should be empty"
  | None -> Alcotest.fail "disk entry not found");
  (match Cache.find cache "k1" with
  | Some (_, Cache.Memory) -> ()
  | _ -> Alcotest.fail "disk hit should repopulate the memory tier");
  check tbool "unknown key misses" true (Cache.find cache "nope" = None);
  Cache.remove cache "k1";
  check tbool "removed key misses" true (Cache.find cache "k1" = None)

let test_cache_lru () =
  let cache = Cache.create ~root:(fresh_root ()) ~capacity:4 () in
  for i = 1 to 10 do
    ignore (entry_of (store_payload cache ~key:(Printf.sprintf "k%d" i)
                        (Printf.sprintf "p%d" i)))
  done;
  check tbool "memory tier is capacity-bounded" true
    (Cache.memory_size cache <= 4);
  (* eviction drops only the handle: every key still answers from disk *)
  for i = 1 to 10 do
    match Cache.find cache (Printf.sprintf "k%d" i) with
    | Some (e, _) ->
        check tstr "evicted entries survive on disk"
          (Printf.sprintf "p%d" i)
          (Cache.read_all e.Cache.artifact)
    | None -> Alcotest.failf "k%d lost by eviction" i
  done

let test_cache_corruption () =
  let cache = Cache.create ~root:(fresh_root ()) () in
  (* bit rot in the artifact: checksum mismatch rejects and deletes *)
  let e = entry_of (store_payload cache ~key:"rot" "good-bytes") in
  write_file e.Cache.artifact "evil-bytes";
  Cache.drop_memory cache;
  check tbool "corrupt artifact rejected" true (Cache.find cache "rot" = None);
  check tbool "corrupt entry deleted from disk" false (Sys.file_exists e.Cache.dir);
  (* ... and the key is immediately reusable: the recompile commits *)
  let e2 = entry_of (store_payload cache ~key:"rot" "good-bytes") in
  check tstr "recompiled entry readable" "good-bytes"
    (Cache.read_all e2.Cache.artifact);
  (* torn META (truncated mid-write without the atomic rename) *)
  let e3 = entry_of (store_payload cache ~key:"torn" "torn-payload") in
  write_file (Filename.concat e3.Cache.dir "META") "DMLLKERN1\nkind=exe\n";
  Cache.drop_memory cache;
  check tbool "torn META rejected" true (Cache.find cache "torn" = None);
  check tbool "torn entry deleted" false (Sys.file_exists e3.Cache.dir);
  (* missing META entirely *)
  let e4 = entry_of (store_payload cache ~key:"bare" "bare-payload") in
  Sys.remove (Filename.concat e4.Cache.dir "META");
  Cache.drop_memory cache;
  check tbool "entry without META rejected" true (Cache.find cache "bare" = None);
  (* missing artifact with an intact META *)
  let e5 = entry_of (store_payload cache ~key:"gone" "gone-payload") in
  Sys.remove e5.Cache.artifact;
  Cache.drop_memory cache;
  check tbool "entry without artifact rejected" true
    (Cache.find cache "gone" = None);
  (* a failing build never commits *)
  (match
     Cache.store cache ~key:"fail" ~source:"s" ~artifact:"a"
       ~build:(fun ~dir:_ -> Error "simulated compiler failure") ()
   with
  | Ok _ -> Alcotest.fail "failed build must not commit"
  | Error _ -> ());
  check tbool "failed build leaves no entry" true (Cache.find cache "fail" = None);
  (* no tmp-* build directories linger after any of the above *)
  let stray =
    Sys.readdir (Cache.root cache)
    |> Array.to_list
    |> List.filter (fun f -> String.length f >= 4 && String.sub f 0 4 = "tmp-")
  in
  check tids "no stray build directories" [] stray

(* -------------- twelve-app cache hit/miss determinism ----------------- *)

let km_data = Dmll_data.Gaussian.generate ~rows:60 ~cols:6 ~classes:3 ()
let km_centroids = Dmll_data.Gaussian.random_centroids ~k:3 km_data
let lr_data = Dmll_data.Gaussian.generate ~rows:50 ~cols:5 ~classes:2 ()
let q1_table = Dmll_data.Tpch.generate ~rows:200 ()
let gene_reads = Dmll_data.Genes.generate ~reads:200 ~barcodes:10 ()

let pr_graph =
  Dmll_graph.Csr.of_edges (Dmll_data.Rmat.generate ~scale:5 ~edge_factor:4 ())

let tri_graph =
  Dmll_graph.Csr.of_edges
    (Dmll_data.Rmat.symmetrize (Dmll_data.Rmat.generate ~scale:4 ~edge_factor:3 ()))

let knn_train = Dmll_data.Gaussian.generate ~seed:1 ~rows:40 ~cols:4 ~classes:3 ()
let knn_test = Dmll_data.Gaussian.generate ~seed:2 ~rows:12 ~cols:4 ~classes:3 ()
let nb_data = Dmll_data.Gaussian.generate ~rows:50 ~cols:4 ~classes:3 ()
let gibbs_graph = Dmll_data.Factor_graph.generate ~vars:30 ~factors:80 ()
let gibbs_state = Dmll_data.Factor_graph.initial_state gibbs_graph
let gibbs_rand = Dmll_data.Factor_graph.sweep_randoms ~sweeps:2 gibbs_graph

(* The twelve apps (the test_plan/test_comm fixture table, small sizes). *)
let apps : (string * Exp.exp * (string * V.t) list) list =
  let open Dmll_apps in
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
      Gibbs.program ~nvars:30 ~replicas:2 (),
      Gibbs.inputs gibbs_graph ~state:gibbs_state ~rand:gibbs_rand );
    ( "ridge",
      Ridge.program ~rows:50 ~cols:5 ~alpha:0.001 ~lambda:0.1 (),
      Ridge.inputs lr_data ~theta:(Array.make 5 0.2) );
  ]

(* The second execution of an identical plan must do zero codegen and
   zero compilation (kernel_cache_hit, no kernel_cache_miss) and produce
   a bit-identical value.  The kernel reads the caller's arrays without
   a copy, so neither execute may change them.  Apps the OCaml codegen
   cannot express yet are skipped — but most must compile, or the test
   is vacuous. *)
let test_twelve_app_determinism () =
  if not (Lazy.force Native.Jit.available) then
    Printf.printf "native JIT unavailable; determinism test skipped\n"
  else begin
    let cache = Cache.create ~root:(fresh_root ()) () in
    let compiled = ref 0 in
    List.iter
      (fun (name, program, inputs) ->
        let opt = (Dmll.compile_with Dmll.Config.default program).Dmll.final in
        let copy : (string * V.t) list =
          Marshal.from_string (Marshal.to_string inputs []) 0
        in
        let inputs_unchanged leg =
          check tbool
            (Printf.sprintf "%s: %s execute leaves its inputs unchanged" name leg)
            true
            (List.for_all2
               (fun (n, v) (n', v') -> String.equal n n' && V.equal v v')
               copy inputs)
        in
        let m1 = Metrics.create () in
        match Native.Jit.run ~cache ~metrics:m1 ~inputs opt with
        | exception Backend.Codegen_ocaml.Unsupported _ -> ()
        | r1 ->
            incr compiled;
            check tint (name ^ ": cold run compiles once") 1
              (Metrics.count m1 "kernel_cache_miss");
            check tint (name ^ ": cold run has no hit") 0
              (Metrics.count m1 "kernel_cache_hit");
            inputs_unchanged "cold";
            let m2 = Metrics.create () in
            let r2 = Native.Jit.run ~cache ~metrics:m2 ~inputs opt in
            inputs_unchanged "warm";
            check tint (name ^ ": warm run hits the cache") 1
              (Metrics.count m2 "kernel_cache_hit");
            check tint (name ^ ": warm run does zero compilation") 0
              (Metrics.count m2 "kernel_cache_miss");
            check tbool (name ^ ": cached value bit-identical") true
              (String.equal
                 (Marshal.to_string r1.Native.value [])
                 (Marshal.to_string r2.Native.value []));
            (* and the cache never changed what was computed *)
            check tbool (name ^ ": value matches the interpreter") true
              (V.approx_equal ~eps:1e-9
                 (Dmll_interp.Interp.run ~inputs opt)
                 r1.Native.value))
      apps;
    check tbool
      (Printf.sprintf "most apps natively compile (%d/12)" !compiled)
      true
      (!compiled >= 8)
  end

(* ---------------------- native kernels in process --------------------- *)

(* An elementwise float-add vector reduce accumulates in place; with its
   init an input the kernel reads without a copy, it must start from a
   copy of it rather than write into the caller's array. *)
let test_reduce_init_unchanged () =
  if not (Lazy.force Native.Jit.available) then
    Printf.printf "native JIT unavailable; reduce-init test skipped\n"
  else begin
    let open Builder in
    let rows = 4 and cols = 3 in
    let farr = Types.Arr Types.Float in
    let z = Exp.Input ("z", farr, Exp.Local)
    and x = Exp.Input ("x", farr, Exp.Local) in
    let program =
      reduce ~size:(Exp.int_ rows) ~ty:farr ~init:z
        (fun i ->
          collect ~size:(Exp.int_ cols) (fun j ->
              read x ((i *! Exp.int_ cols) +! j)))
        vec_fadd
    in
    let z0 = [| 1.0; 2.0; 3.0 |] in
    let inputs =
      [ ("z", V.of_float_array (Array.copy z0));
        ("x", V.of_float_array (Array.init (rows * cols) float_of_int)) ]
    in
    let cache = Cache.create ~root:(fresh_root ()) () in
    let r = Native.Jit.run ~cache ~inputs program in
    check tbool "value matches the interpreter" true
      (V.equal (Interp.run ~inputs program) r.Native.value);
    check tbool "the init input is unchanged" true
      (V.equal (V.of_float_array z0) (List.assoc "z" inputs))
  end

let native_cfg root =
  Dmll.Config.(default |> with_target Dmll.Native |> with_kernel_cache_dir root)

(* A kmeans instance whose kernel no other case of this suite links:
   kernels stay linked for the life of the process, keyed by program. *)
let small_kmeans ~rows ~cols ~k =
  let data = Dmll_data.Gaussian.generate ~rows ~cols ~classes:k () in
  ( Dmll_apps.Kmeans.program ~rows ~cols ~k (),
    Dmll_apps.Kmeans.inputs data
      ~centroids:(Dmll_data.Gaussian.random_centroids ~k data) )

(* A committed entry whose artifact passes its checksum but is no
   loadable plugin (say, one built against an older [Value] interface)
   is evicted and rebuilt: one miss, and the rebuilt kernel computes the
   interpreter's value. *)
let test_native_corrupt_recompile () =
  if not (Lazy.force Native.Jit.available) then
    Printf.printf "native JIT unavailable; corrupt-kernel test skipped\n"
  else begin
    let cache = Cache.create ~root:(fresh_root ()) () in
    let program, inputs = small_kmeans ~rows:16 ~cols:3 ~k:2 in
    let opt = (Dmll.compile_with Dmll.Config.default program).Dmll.final in
    let key = Native.cache_key opt in
    check tbool "kernel not linked yet" true
      (Option.is_none (Backend.Kernel_link.find key));
    ignore
      (entry_of
         (Cache.store cache ~key ~source:"(* not a kernel *)"
            ~artifact:"junk.cmxs"
            ~build:(fun ~dir ->
              write_file (Filename.concat dir "junk.cmxs") "not a plugin";
              Ok ())
            ()));
    let m = Metrics.create () in
    let kernel, src = Native.Jit.kernel_for ~cache ~metrics:m opt in
    check tbool "unloadable entry rebuilt" true (src = Native.Jit.Compiled);
    check tint "rebuild records one miss" 1 (Metrics.count m "kernel_cache_miss");
    check tint "and no hit" 0 (Metrics.count m "kernel_cache_hit");
    (match Cache.find cache key with
    | Some (e, _) ->
        check tbool "the junk artifact is gone" false
          (String.equal (Filename.basename e.Cache.artifact) "junk.cmxs")
    | None -> Alcotest.fail "rebuilt kernel not committed under its key");
    let value : V.t =
      Marshal.from_string (kernel (Marshal.to_string inputs [])) 0
    in
    check tbool "rebuilt value matches the interpreter" true
      (V.approx_equal ~eps:1e-9 (Interp.run ~inputs opt) value)
  end

(* A native execute binds its staged kernel once and runs the thunk
   once: no warm-up and no repeated timed calls.  A counting wrapper is
   registered under the kernel's key, where the next execute finds it
   already linked. *)
let test_one_kernel_call () =
  if not (Lazy.force Native.Jit.available) then
    Printf.printf "native JIT unavailable; kernel-call test skipped\n"
  else begin
    let cfg = native_cfg (fresh_root ()) in
    let program, inputs = small_kmeans ~rows:32 ~cols:4 ~k:3 in
    let c = Dmll.compile_with cfg program in
    let first = Dmll.execute cfg c ~inputs in
    let key = Native.cache_key c.Dmll.final in
    let linked =
      match Backend.Kernel_link.find key with
      | Some k -> k
      | None -> Alcotest.fail "the first execute linked no kernel"
    in
    let binds = ref 0 and runs = ref 0 in
    Backend.Kernel_link.register ~key (fun inputs ->
        incr binds;
        let run = linked inputs in
        fun () ->
          incr runs;
          run ());
    Fun.protect
      ~finally:(fun () -> Backend.Kernel_link.register ~key linked)
      (fun () ->
        let second = Dmll.execute cfg c ~inputs in
        check tint "one bind per execute" 1 !binds;
        check tint "one run per execute" 1 !runs;
        check tbool "value equal to the first execute's" true
          (V.equal first.Dmll.value second.Dmll.value))
  end

(* A native execute's [seconds] is the wall-clock the caller waited, so a
   cold execute's covers its kernel build; a warm one builds nothing. *)
let test_seconds_cover_build () =
  if not (Lazy.force Native.Jit.available) then
    Printf.printf "native JIT unavailable; seconds test skipped\n"
  else begin
    let cfg = native_cfg (fresh_root ()) in
    let program, inputs = small_kmeans ~rows:24 ~cols:3 ~k:2 in
    let c = Dmll.compile_with cfg program in
    let traced () =
      let tr = Dmll_obs.Span.create () in
      let r = Dmll.execute (Dmll.Config.with_tracer tr cfg) c ~inputs in
      let builds =
        List.filter
          (fun (s : Dmll_obs.Span.span) -> s.Dmll_obs.Span.name = "kernel-compile")
          (Dmll_obs.Span.spans tr)
      in
      (r, builds)
    in
    let cold, builds = traced () in
    check tint "cold execute builds its kernel" 1
      (Metrics.count cold.Dmll.metrics "kernel_cache_miss");
    (match builds with
    | [ b ] ->
        (* both clocks are Unix.gettimeofday; 1 ns absorbs the rounding
           of the span's microsecond arithmetic *)
        check tbool
          (Printf.sprintf "seconds %.6f covers the build's %.6f" cold.Dmll.seconds
             (b.Dmll_obs.Span.dur_us /. 1e6))
          true
          (cold.Dmll.seconds +. 1e-9 >= b.Dmll_obs.Span.dur_us /. 1e6)
    | l -> Alcotest.failf "cold execute: %d kernel-compile spans" (List.length l));
    let warm, builds = traced () in
    check tint "warm execute emits no kernel-compile span" 0 (List.length builds);
    check tint "warm execute hits the kernel cache" 1
      (Metrics.count warm.Dmll.metrics "kernel_cache_hit")
  end

(* ------------------- QCheck: Dynlink = interpreter -------------------- *)

(* The kernel must agree with the interpreter on random programs.  Each
   program is built with ocamlopt, so the count trades coverage against
   suite wall-time; DMLL_SEAM_QCHECK overrides it. *)
let qcheck_count =
  match Sys.getenv_opt "DMLL_SEAM_QCHECK" with
  | Some n -> ( match int_of_string_opt n with Some n -> n | None -> 100)
  | None -> 100

let prop_jit_equals_interp =
  let cache = Cache.create ~root:(fresh_root ()) () in
  QCheck.Test.make ~count:qcheck_count
    ~name:"Dynlink JIT = interpreter on random programs"
    Dmll_testgen.Gen_ir.arbitrary_program (fun e ->
      if not (Lazy.force Native.Jit.available) then QCheck.assume_fail ()
      else
        match Interp.run e with
        | exception Interp.Runtime_error _ -> QCheck.assume_fail ()
        | expected -> (
            match Native.Jit.run ~cache ~inputs:[] e with
            | exception Backend.Codegen_ocaml.Unsupported _ ->
                QCheck.assume_fail ()
            | jit -> V.approx_equal ~eps:1e-9 expected jit.Native.value))

let qcheck = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "seam"
    [ ( "registry",
        [ Alcotest.test_case "round-trip" `Quick test_registry_roundtrip;
          Alcotest.test_case "target resolution" `Quick test_target_resolution;
          Alcotest.test_case "capability JSON schema" `Quick
            test_registry_json_schema;
        ] );
      ( "kernel-cache",
        [ Alcotest.test_case "key hygiene" `Quick test_cache_key;
          Alcotest.test_case "tiers" `Quick test_cache_tiers;
          Alcotest.test_case "LRU eviction" `Quick test_cache_lru;
          Alcotest.test_case "corruption" `Quick test_cache_corruption;
        ] );
      ( "native",
        [ Alcotest.test_case "twelve-app determinism" `Slow
            test_twelve_app_determinism;
          Alcotest.test_case "reduce init input unchanged" `Slow
            test_reduce_init_unchanged;
          Alcotest.test_case "corrupt kernel recompiles" `Slow
            test_native_corrupt_recompile;
          Alcotest.test_case "one kernel call per execute" `Slow
            test_one_kernel_call;
          Alcotest.test_case "seconds covers the build" `Slow
            test_seconds_cover_build;
          qcheck prop_jit_equals_interp;
        ] );
    ]
