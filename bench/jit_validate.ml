(* Kernel-cache gate for the native backend (DESIGN.md §17).

   For kmeans, pagerank, and TPC-H Q1 on the native target: execute the
   same compiled plan twice against a fresh kernel-cache root.  The cold
   leg must compile exactly once per plan ([kernel_cache_miss]); the
   warm leg must do {e zero} codegen and zero compilation
   ([kernel_cache_hit] only) and return a bit-identical value — the
   seam's central promise.  The sweep hard-fails (exit 1) when the warm
   leg recompiles, when a value diverges, or when a run leaks a
   [dmll_native_run*] scratch directory into the system temp dir (the
   cache root itself is exempt: committed kernels are supposed to
   persist).

   Emits one JSON line per app — mirrored into BENCH_jit.json:

     {"app":"kmeans","cold_miss":1,"cold_hit":0,
      "warm_miss":0,"warm_hit":1,"value_ok":true}

   The lines hold no timings, so the file is the same on every run: a
   single-sample cold/warm time is noise, and bench/perf measures what
   the kernel cache saves (its native-adhoc workload). *)

module V = Dmll_interp.Value
module Metrics = Dmll_obs.Metrics
module Cache = Dmll_backend.Kernel_cache
module Native = Dmll_backend.Native

let apps () =
  let q1 = Lazy.force Datasets.q1_table in
  let ml = Lazy.force Datasets.ml_small in
  let cents = Lazy.force Datasets.centroids_small in
  let pr = Lazy.force Datasets.pr_graph in
  [ ( "kmeans",
      Dmll_apps.Kmeans.program ~rows:Datasets.ml_rows_small ~cols:Datasets.ml_cols
        ~k:Datasets.kmeans_k (),
      Dmll_apps.Kmeans.inputs ml ~centroids:cents );
    ( "pagerank",
      Dmll_apps.Pagerank.program_pull ~nv:pr.Dmll_graph.Csr.nv (),
      Dmll_apps.Pagerank.inputs pr ~ranks:(Dmll_apps.Pagerank.initial_ranks pr) );
    ( "tpch_q1",
      Dmll_apps.Tpch_q1.program (),
      Dmll_apps.Tpch_q1.aos_inputs q1 @ Dmll_apps.Tpch_q1.soa_inputs q1 );
  ]

(* dmll_native_run* scratch directories in the system temp dir — a native
   execution runs in process and must leave none behind. *)
let scratch_dirs () =
  let tmp = Filename.get_temp_dir_name () in
  match Sys.readdir tmp with
  | exception Sys_error _ -> []
  | entries ->
      Array.to_list entries
      |> List.filter (fun f ->
             String.length f >= 15 && String.sub f 0 15 = "dmll_native_run")
      |> List.sort String.compare

let run () =
  if not (Lazy.force Native.Jit.available) then
    Printf.printf "native JIT unavailable; jit_validate skipped (vacuous pass)\n"
  else begin
    Printf.printf
      "Kernel cache: cold vs warm native execution\n\
       (contract: the warm leg performs zero codegen and zero compilation\n\
       \ and its value is bit-identical to the cold leg's).\n\n";
    let root = Filename.temp_file "dmll-jit-validate" "" in
    Sys.remove root;
    let before = scratch_dirs () in
    let failures = ref 0 in
    let out = open_out "BENCH_jit.json" in
    Fun.protect
      ~finally:(fun () ->
        close_out out;
        Cache.rm_rf root)
      (fun () ->
        List.iter
          (fun (name, program, inputs) ->
            let cfg =
              Dmll.Config.(
                default |> with_target Dmll.Native
                |> with_kernel_cache_dir root)
            in
            let c = Dmll.compile_with cfg program in
            let cold = Dmll.execute cfg c ~inputs in
            let warm = Dmll.execute cfg c ~inputs in
            let count leg k = Metrics.count leg.Dmll.metrics k in
            let cold_miss = count cold "kernel_cache_miss" in
            let cold_hit = count cold "kernel_cache_hit" in
            let warm_miss = count warm "kernel_cache_miss" in
            let warm_hit = count warm "kernel_cache_hit" in
            let value_ok =
              String.equal
                (Marshal.to_string cold.Dmll.value [])
                (Marshal.to_string warm.Dmll.value [])
            in
            let line =
              Printf.sprintf
                "{\"app\":%S,\"cold_miss\":%d,\"cold_hit\":%d,\"warm_miss\":%d,\"warm_hit\":%d,\"value_ok\":%b}"
                name cold_miss cold_hit warm_miss warm_hit value_ok
            in
            Printf.printf "%s\n%!" line;
            output_string out (line ^ "\n");
            if cold_miss < 1 then begin
              incr failures;
              Printf.printf "  FAIL %s: cold leg did not compile (stale cache root?)\n" name
            end;
            if warm_miss > 0 then begin
              incr failures;
              Printf.printf "  FAIL %s: warm leg recompiled %d kernel(s)\n" name warm_miss
            end;
            if warm_hit < 1 then begin
              incr failures;
              Printf.printf "  FAIL %s: warm leg never hit the kernel cache\n" name
            end;
            if not value_ok then begin
              incr failures;
              Printf.printf "  FAIL %s: warm value differs from cold value\n" name
            end)
          (apps ()));
    (* temp-dir hygiene: every per-run scratch directory must be gone *)
    let after = scratch_dirs () in
    let stray = List.filter (fun d -> not (List.mem d before)) after in
    if stray <> [] then begin
      incr failures;
      Printf.printf "  FAIL: leaked scratch dirs: %s\n" (String.concat ", " stray)
    end;
    Printf.printf "\nwrote BENCH_jit.json\n%!";
    if !failures > 0 then begin
      Printf.printf "jit_validate: %d failure(s)\n" !failures;
      exit 1
    end
  end
