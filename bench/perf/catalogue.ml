(* What the benchmark reports: the workloads, the end-to-end and per-layer
   metrics with their units, and the [Metrics.t] keys it may read.  The
   names here must match BENCHMARK.json; the smoke run checks that they
   do. *)

module Metrics = Dmll_obs.Metrics

let workloads = [ "native-adhoc"; "kmeans-seq"; "kmeans-proc"; "q1-net" ]

(* Measured by the untraced run, as (name, unit); BENCHMARK.json gives
   each one's direction and bound. *)
let end_to_end =
  [ ("setup_s", "s");
    ("job_s_p50", "s");
    ("job_s_p90", "s");
    ("jobs_per_s", "1/s");
    ("cpu_s_per_job", "s");
    ("peak_heap_mb", "MB");
  ]

(* Printed beside the end-to-end metrics but not in the result line: the
   error rate, which reads 0 on every good run and is carried by the
   result's failed/attempted fields instead; the times before the
   contention adjustment (see Harness); and the run's mean contention
   factor. *)
let printed_only =
  [ ("error_rate", "fraction");
    ("setup_s_raw", "s");
    ("job_s_p50_raw", "s");
    ("job_s_p90_raw", "s");
    ("jobs_per_s_raw", "1/s");
    ("cpu_s_per_job_raw", "s");
    ("contention", "factor");
  ]

(* A per-layer metric and the workloads whose jobs cross its layer.  On
   those it must read nonzero in a full traced run; on the others the
   bench does not call the layer and the metric reads exactly 0. *)
type layer = { lname : string; lunit : string; home : string list }

let per_layer =
  let l lname lunit home = { lname; lunit; home } in
  let native = [ "native-adhoc" ]
  and seq = [ "kmeans-seq" ]
  and proc = [ "kmeans-proc" ]
  and net = [ "q1-net" ] in
  [ l "core.compile_s" "s" native;
    l "opt.generic_optimize_s" "s" native;
    l "analysis.partition_s" "s" native;
    l "analysis.plan_ilp_s" "s" native;
    l "codegen_ocaml.emit_s" "s" native;
    l "codegen_ocaml.source_kb" "KiB" native;
    l "native.kernel_build_s" "s" native;
    l "native.kernel_lookup_s" "s" native;
    l "kernel_cache.hit_ratio" "fraction" native;
    l "native.input_marshal_s" "s" native;
    l "native.kernel_run_s" "s" native;
    l "native.execute_s" "s" native;
    l "closure.compile_s" "s" seq;
    l "closure.run_s" "s" seq;
    l "closure.vs_handopt" "ratio" seq;
    l "gc.minor_mwords_per_job" "Mword" workloads;
    l "gc.major_per_job" "count" seq;
    l "proc_cluster.loop_s" "s" proc;
    l "proc_cluster.spawn_reap_s" "s" proc;
    l "proc_cluster.tasks_per_job" "count" proc;
    l "proc_cluster.kills" "count" proc;
    l "proc_cluster.replans" "count" proc;
    l "proc_cluster.recovered_chunks" "count" proc;
    l "proc_cluster.recovery_s" "s" proc;
    l "proc_cluster.job_s_1w" "s" proc;
    l "proc_cluster.scaling_2w" "ratio" proc;
    l "net_cluster.loop_s" "s" net;
    l "net_cluster.connect_ship_s" "s" net;
    l "net_cluster.bytes_out_per_job" "B" net;
    l "net_cluster.bytes_in_per_job" "B" net;
    l "net_cluster.welcome_bytes_per_job" "B" net;
    l "net_cluster.vs_proc_s" "s" net;
    l "transport.frame_roundtrip_s" "s" net;
    l "transport.crc32_mb_s" "MB/s" net;
    l "trace.overhead" "fraction" workloads;
  ]

(* ------------------------------------------------------------------ *)
(* Declared Metrics.t keys                                             *)
(* ------------------------------------------------------------------ *)

(* The run ledgers are string-keyed: a misspelt key reads 0.  The bench
   therefore reads them only through this list, and a declared key that
   totals 0 on a workload listed in [nonzero_on] fails the run. *)
type kind = Count | Bytes

type key = { key : string; kind : kind; nonzero_on : string list }

let keys =
  [ { key = "kernel_cache_miss"; kind = Count; nonzero_on = [ "native-adhoc" ] };
    { key = "kernel_cache_hit"; kind = Count; nonzero_on = [ "native-adhoc" ] };
    { key = "proc_tasks"; kind = Count; nonzero_on = [ "kmeans-proc" ] };
    { key = "proc_loops"; kind = Count; nonzero_on = [ "kmeans-proc" ] };
    { key = "net_tasks"; kind = Count; nonzero_on = [ "q1-net" ] };
    { key = "net_loops"; kind = Count; nonzero_on = [ "q1-net" ] };
    { key = "net_connects"; kind = Count; nonzero_on = [ "q1-net" ] };
    { key = "net_bytes_out"; kind = Bytes; nonzero_on = [ "q1-net" ] };
    { key = "net_bytes_in"; kind = Bytes; nonzero_on = [ "q1-net" ] };
  ]

let declared (key : string) : key =
  match List.find_opt (fun k -> String.equal k.key key) keys with
  | Some k -> k
  | None -> invalid_arg ("undeclared metrics key " ^ key)

let read (m : Metrics.t) (key : string) : float =
  match (declared key).kind with
  | Count -> float_of_int (Metrics.count m key)
  | Bytes -> Metrics.bytes m key

(* Running totals of every declared key over a workload's jobs. *)
type totals = (string, float) Hashtbl.t

let totals () : totals = Hashtbl.create 16

let add (t : totals) (m : Metrics.t) : unit =
  List.iter
    (fun k ->
      Hashtbl.replace t k.key
        (read m k.key +. Option.value ~default:0.0 (Hashtbl.find_opt t k.key)))
    keys

let total (t : totals) (key : string) : float =
  Option.value ~default:0.0 (Hashtbl.find_opt t (declared key).key)

(* Declared keys that read 0 on [workload] although they must not. *)
let silent_zeros (t : totals) ~(workload : string) : string list =
  List.filter_map
    (fun k ->
      if List.mem workload k.nonzero_on && total t k.key = 0.0 then
        Some (Printf.sprintf "%s reads 0 on %s" k.key workload)
      else None)
    keys
