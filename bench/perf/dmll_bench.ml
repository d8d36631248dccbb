(* dmll_bench: the repository's end-to-end benchmark (README.md).

     dmll_bench --workload NAME --seed N [--seconds S] [--trace 0|1]
                [--chrome T.json] [--smoke]
       one workload in this process; prints "workload metric value unit"
       lines, then one JSON result line
     dmll_bench run [--seed N] [--runs K] [--out R.json] [--smoke]
       every workload, each in a fresh child process (K times); the runs
       are appended to R.json's
     dmll_bench trace [--seed N] [--out L.json] [--chrome T.json] [--smoke]
       the traced run of every workload: per-layer metrics and one
       Chrome trace
     dmll_bench compare A.json B.json [--spec BENCHMARK.json]
       better / same / worse / unresolved per workload and metric
     dmll_bench smoke [--spec BENCHMARK.json]
       run + trace at <= 10 jobs per workload, checking the output *)

module Span = Dmll_obs.Span
module J = Dmll_obs.Trace_json
module H = Harness
module C = Catalogue

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("dmll_bench: " ^ m); exit 2) fmt

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let rec json_to_string : J.t -> string = function
  | J.Obj kvs ->
      "{"
      ^ String.concat ", "
          (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (json_to_string v)) kvs)
      ^ "}"
  | J.Arr vs -> "[" ^ String.concat ", " (List.map json_to_string vs) ^ "]"
  | J.Str s -> "\"" ^ Dmll_obs.Metrics.json_escape s ^ "\""
  | J.Num f when Float.is_integer f && Float.abs f < 1e15 -> Printf.sprintf "%.0f" f
  | J.Num f -> Printf.sprintf "%.17g" f
  | J.Bool b -> string_of_bool b
  | J.Null -> "null"

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let parse_file path =
  match J.parse (read_file path) with
  | Ok j -> j
  | Error m -> die "%s: %s" path m
  | exception Sys_error m -> die "%s" m

let member k j = match J.member k j with Some v -> v | None -> J.Null
let to_num = function J.Num f -> f | _ -> nan
let to_str = function J.Str s -> s | _ -> ""
let to_list = function J.Arr l -> l | _ -> []
let to_obj = function J.Obj kvs -> kvs | _ -> []

(* ------------------------------------------------------------------ *)
(* One workload in this process                                        *)
(* ------------------------------------------------------------------ *)

(* Each run works in a private temp directory inside the current one, so
   that it reads and writes nowhere else ([ocamlopt] included) and its
   leak checks see only its own files. *)
let scratch_root = ".perf_scratch"

let make_scratch name =
  let dir =
    Filename.concat (Sys.getcwd ())
      (Filename.concat scratch_root (Printf.sprintf "%s.%d" name (Unix.getpid ())))
  in
  Dmll_backend.Kernel_cache.mkdir_p dir;
  Filename.set_temp_dir_name dir;
  Unix.putenv "TMPDIR" dir;
  dir

(* What must not survive a run: the kernel-cache root, a
   dmll_native_run* scratch directory, an unreaped child. *)
let hygiene ~scratch ~cache_root : string list =
  Dmll_backend.Kernel_cache.rm_rf cache_root;
  let leaked_root =
    if Sys.file_exists cache_root then [ "kernel-cache root survived the run" ] else []
  in
  let leaked_scratch =
    Sys.readdir scratch |> Array.to_list
    |> List.filter (fun f -> String.starts_with ~prefix:"dmll_native_run" f)
    |> List.map (fun f -> "leaked scratch directory " ^ f)
  in
  let children =
    match Unix.waitpid [ Unix.WNOHANG ] (-1) with
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> []
    | 0, _ -> [ "a child process is still running" ]
    | pid, _ -> [ Printf.sprintf "child %d was left unreaped" pid ]
  in
  Dmll_backend.Kernel_cache.rm_rf scratch;
  (try Unix.rmdir scratch_root with Unix.Unix_error _ -> ());
  leaked_root @ leaked_scratch @ children

let result_json ~correct ~attempted ~failed (metrics : (string * float * string) list) =
  J.Obj
    [ ("correct", J.Bool correct);
      ("attempted", J.Num (float_of_int attempted));
      ("failed", J.Num (float_of_int failed));
      ( "metrics",
        J.Obj
          (List.map
             (fun (n, v, u) -> (n, J.Obj [ ("value", J.Num v); ("unit", J.Str u) ]))
             metrics) );
    ]

(* The traced run's per-layer metrics, in catalogue order, and what is
   wrong with them: a name the catalogue lacks, a layer this workload
   crosses reading 0 in a full run, a Chrome trace off the schema. *)
let traced_report ~name ~smoke ~chrome inst =
  let tracer = Span.create () in
  let o = H.traced inst tracer in
  let value l = List.assoc_opt l.C.lname o.H.metrics in
  let reported =
    List.map (fun l -> (l.C.lname, Option.value ~default:0.0 (value l), l.C.lunit)) C.per_layer
  in
  let unknown =
    List.filter_map
      (fun (n, _) ->
        if List.exists (fun l -> String.equal l.C.lname n) C.per_layer then None
        else Some ("metric missing from the catalogue: " ^ n))
      o.H.metrics
  in
  let zeros =
    List.filter_map
      (fun l ->
        match value l with
        | Some v when v <> 0.0 -> None
        | _ when List.mem name l.C.home && not smoke ->
            Some (Printf.sprintf "%s reads 0 on %s" l.C.lname name)
        | _ -> None)
      C.per_layer
  in
  let chrome_json = Span.to_chrome_json tracer in
  let schema =
    match J.validate_chrome chrome_json with Ok () -> [] | Error m -> [ "chrome trace: " ^ m ]
  in
  Option.iter (fun path -> write_file path chrome_json) chrome;
  (o, reported, [], unknown @ zeros @ schema)

(* The untraced run's end-to-end metrics, plus the lines printed beside
   them only: the error rate, the unadjusted times and the mean
   contention factor. *)
let untraced_report ~setups inst =
  let o = H.untraced inst ~setups in
  let pick (n, u) = (n, List.assoc n o.H.metrics, u) in
  (o, List.map pick C.end_to_end, List.map pick C.printed_only, [])

let workload_main ~name ~seed ~trace ~smoke ~chrome =
  if not (List.mem name C.workloads) then die "unknown workload %s" name;
  let scratch = make_scratch name in
  let cache_root = Filename.concat scratch "kernel-cache" in
  let setups = if smoke then 1 else 9 in
  let inst = Workloads.prepare name { Workloads.seed; smoke; setups; cache_root } in
  let outcome, reported, printed, checks =
    if trace then traced_report ~name ~smoke ~chrome inst else untraced_report ~setups inst
  in
  let leaks = hygiene ~scratch ~cache_root in
  let not_finite =
    List.filter_map
      (fun (n, v, _) -> if Float.is_finite v then None else Some (n ^ " is not finite"))
      reported
  in
  let problems = outcome.H.problems @ checks @ leaks @ not_finite in
  List.iter (fun p -> Printf.eprintf "%s: %s\n" name p) problems;
  let correct = outcome.H.failed = 0 && problems = [] in
  List.iter (fun (n, v, u) -> Printf.printf "%s %s %.6g %s\n" name n v u) (reported @ printed);
  let reported =
    List.map (fun (n, v, u) -> (n, (if Float.is_finite v then v else 0.0), u)) reported
  in
  print_endline
    (json_to_string
       (result_json ~correct ~attempted:outcome.H.attempted ~failed:outcome.H.failed
          reported));
  exit (if correct then 0 else 1)

(* ------------------------------------------------------------------ *)
(* Fresh child processes                                               *)
(* ------------------------------------------------------------------ *)

(* Re-execute this binary on one workload and return its JSON result;
   [echo] copies the child's metric lines to stdout. *)
let child ?(echo = true) ~name ~seed ~trace ~smoke ?chrome () : J.t =
  let args =
    [ Sys.executable_name; "--workload"; name; "--seed"; string_of_int seed;
      "--trace"; (if trace then "1" else "0") ]
    @ (if smoke then [ "--smoke" ] else [])
    @ match chrome with Some p -> [ "--chrome"; p ] | None -> []
  in
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list args) in
  let out = In_channel.input_all ic in
  ignore (Unix.close_process_in ic);
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' out) in
  match List.rev lines with
  | last :: metrics -> (
      if echo then List.iter print_endline (List.rev metrics);
      match J.parse last with
      | Ok j -> j
      | Error _ -> die "%s: no result line" name)
  | [] -> die "%s: no output" name

let correct j = member "correct" j = J.Bool true

let values j =
  List.map (fun (n, v) -> (n, J.Num (to_num (member "value" v)))) (to_obj (member "metrics" j))

let error_rate j =
  to_num (member "failed" j) /. Float.max 1.0 (to_num (member "attempted" j))

let cmd_run ~seed ~runs ~out ~smoke =
  let ok = ref true in
  let run_json =
    List.init runs (fun _ ->
        J.Obj
          (List.map
             (fun name ->
               let j = child ~name ~seed ~trace:false ~smoke () in
               if not (correct j) then ok := false;
               ( name,
                 J.Obj
                   (values j
                   @ [ ("error_rate", J.Num (error_rate j)); ("correct", member "correct" j) ]) ))
             C.workloads))
  in
  (* appending lets two commits' runs alternate into two files *)
  Option.iter
    (fun path ->
      let earlier =
        if Sys.file_exists path then to_list (member "runs" (parse_file path)) else []
      in
      write_file path
        (json_to_string
           (J.Obj
              [ ("seed", J.Num (float_of_int seed)); ("runs", J.Arr (earlier @ run_json)) ])
        ^ "\n"))
    out;
  if not !ok then exit 1

(* Every workload's Chrome trace as one file: one process per workload. *)
let merge_chrome (parts : (string * string) list) : string =
  let events =
    List.concat
      (List.mapi
         (fun i (name, path) ->
           let pid = J.Num (float_of_int (i + 1)) in
           List.map
             (fun e ->
               let kvs = to_obj e in
               let kvs = List.map (fun (k, v) -> if k = "pid" then (k, pid) else (k, v)) kvs in
               if member "name" e = J.Str "process_name" then
                 J.Obj
                   (List.map
                      (fun (k, v) -> if k = "args" then (k, J.Obj [ ("name", J.Str name) ]) else (k, v))
                      kvs)
               else J.Obj kvs)
             (to_list (member "traceEvents" (parse_file path))))
         parts)
  in
  json_to_string
    (J.Obj [ ("displayTimeUnit", J.Str "ms"); ("traceEvents", J.Arr events) ])

let cmd_trace ~seed ~out ~chrome ~smoke =
  let ok = ref true in
  let parts = ref [] in
  let layers =
    List.map
      (fun name ->
        let part =
          Option.map (fun p -> Printf.sprintf "%s.%s.part" p name) chrome
        in
        let j = child ~name ~seed ~trace:true ~smoke ?chrome:part () in
        if not (correct j) then ok := false;
        Option.iter (fun p -> parts := (name, p) :: !parts) part;
        (name, J.Obj (values j)))
      C.workloads
  in
  Option.iter
    (fun path ->
      let merged = merge_chrome (List.rev !parts) in
      List.iter (fun (_, p) -> Sys.remove p) !parts;
      (match J.validate_chrome merged with
      | Ok () -> ()
      | Error m ->
          prerr_endline ("dmll_bench: merged chrome trace: " ^ m);
          ok := false);
      write_file path merged)
    chrome;
  Option.iter
    (fun path ->
      write_file path
        (json_to_string
           (J.Obj [ ("seed", J.Num (float_of_int seed)); ("workloads", J.Obj layers) ])
        ^ "\n"))
    out;
  if not !ok then exit 1

(* ------------------------------------------------------------------ *)
(* compare                                                             *)
(* ------------------------------------------------------------------ *)

type bound = { metric : string; higher_is_better : bool; bound : float }

let spec_bounds spec : bound list =
  List.map
    (fun m ->
      { metric = to_str (member "name" m);
        higher_is_better = to_str (member "better" m) = "higher";
        bound = to_num (member "bound" m);
      })
    (to_list (member "end_to_end" spec))

(* For one workload and metric: A is the parent, B the change.  A gain
   needs at least ten pairs of runs, B winning nine tenths of them, and
   medians further apart than A's interquartile range. *)
let verdict (b : bound) (a : float list) (bs : float list) : string =
  let ma = H.median a and mb = H.median bs in
  let spread xs =
    let q1, q3 = H.quartiles xs in
    (q3 -. q1) /. Float.abs (H.median xs)
  in
  let beats x y = if b.higher_is_better then x > y else x < y in
  let worse_by = (if b.higher_is_better then ma -. mb else mb -. ma) /. ma in
  let all_beat = List.for_all (fun y -> List.for_all (fun x -> beats y x) a) bs in
  let pairs =
    List.combine
      (List.filteri (fun i _ -> i < List.length bs) a)
      (List.filteri (fun i _ -> i < List.length a) bs)
  in
  let n = List.length pairs in
  let wins = List.length (List.filter (fun (x, y) -> beats y x) pairs) in
  let q1a, q3a = H.quartiles a in
  if (spread a > b.bound || spread bs > b.bound) && not all_beat then "unresolved"
  else if worse_by > b.bound then "worse"
  else if
    n >= 10
    && beats mb ma
    && float_of_int wins >= 0.9 *. float_of_int n
    && Float.abs (mb -. ma) > q3a -. q1a
  then "better"
  else "same"

let cmd_compare ~spec a_path b_path =
  let bounds = spec_bounds (parse_file spec) in
  let runs path = to_list (member "runs" (parse_file path)) in
  let ra = runs a_path and rb = runs b_path in
  if ra = [] || rb = [] then die "compare: each file needs at least one run";
  let series rs w m =
    List.map (fun r -> to_num (member m (member w r))) rs
  in
  let bad = ref false in
  Printf.printf "%-13s %-14s %12s %12s %8s  %s\n" "workload" "metric" "A median"
    "B median" "change" "verdict";
  List.iter
    (fun w ->
      List.iter
        (fun b ->
          let a = series ra w b.metric and bs = series rb w b.metric in
          let v = verdict b a bs in
          if v = "worse" then bad := true;
          let ma = H.median a and mb = H.median bs in
          Printf.printf "%-13s %-14s %12.6g %12.6g %+7.1f%%  %s\n" w b.metric ma mb
            (100.0 *. (mb -. ma) /. ma) v)
        bounds;
      let ea = H.mean (series ra w "error_rate") and eb = H.mean (series rb w "error_rate") in
      let v = if eb > ea then "worse" else if eb < ea then "better" else "same" in
      if v = "worse" then bad := true;
      Printf.printf "%-13s %-14s %12.6g %12.6g %8s  %s\n" w "error_rate" ea eb "" v)
    C.workloads;
  if !bad then exit 1

(* ------------------------------------------------------------------ *)
(* smoke                                                               *)
(* ------------------------------------------------------------------ *)

(* The output schema against BENCHMARK.json: the result line has exactly
   its four keys, and names every listed metric with its unit. *)
let schema_problems ~spec ~(section : string) (j : J.t) : string list =
  let want =
    List.map
      (fun m -> (to_str (member "name" m), to_str (member "unit" m)))
      (to_list (member section spec))
  in
  let got =
    List.map (fun (n, v) -> (n, to_str (member "unit" v))) (to_obj (member "metrics" j))
  in
  (if J.keys j = [ "correct"; "attempted"; "failed"; "metrics" ] then []
   else [ "result keys differ from correct/attempted/failed/metrics" ])
  @ (if List.sort compare want = List.sort compare got then []
     else [ Printf.sprintf "metrics differ from BENCHMARK.json's %s" section ])
  @ if to_num (member "failed" j) = 0.0 then [] else [ "a job failed" ]

let cmd_smoke ~spec =
  let spec = parse_file spec in
  let names = List.map (fun w -> to_str (member "name" w)) (to_list (member "workloads" spec)) in
  let problems =
    (if names = C.workloads then [] else [ "workloads differ from BENCHMARK.json" ])
    @ List.concat_map
        (fun name ->
          let run trace section =
            let j = child ~echo:false ~name ~seed:1 ~trace ~smoke:true () in
            List.map
              (fun p -> Printf.sprintf "%s (%s): %s" name section p)
              ((if correct j then [] else [ "result is not correct" ])
              @ schema_problems ~spec ~section j)
          in
          run false "end_to_end" @ run true "per_layer")
        C.workloads
  in
  List.iter (fun p -> prerr_endline ("smoke: " ^ p)) problems;
  if problems <> [] then exit 1;
  Printf.printf "smoke: %d workloads, untraced and traced: ok\n"
    (List.length C.workloads)

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let () =
  let argv = Array.to_list Sys.argv in
  let cmd, rest =
    match argv with
    | _ :: (("run" | "trace" | "compare" | "smoke") as c) :: rest -> (c, rest)
    | _ :: rest -> ("workload", rest)
    | [] -> ("workload", [])
  in
  let seed = ref 1 and runs = ref 1 and trace = ref 0 and smoke = ref false in
  let workload = ref "" and out = ref None and chrome = ref None in
  let spec = ref "BENCHMARK.json" and files = ref [] in
  let specs =
    [ ("--workload", Arg.Set_string workload, "NAME workload to run in this process");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ( "--seconds",
        Arg.Float ignore,
        "S accepted and ignored: every workload runs a fixed number of jobs" );
      ("--trace", Arg.Set_int trace, "0|1 untraced (end-to-end) or traced (per-layer) run");
      ("--smoke", Arg.Set smoke, " at most 10 jobs per workload, small inputs");
      ("--runs", Arg.Set_int runs, "K repetitions of every workload (run)");
      ("--out", Arg.String (fun s -> out := Some s), "FILE JSON output (run appends, trace overwrites)");
      ("--chrome", Arg.String (fun s -> chrome := Some s), "FILE Chrome trace output");
      ("--spec", Arg.Set_string spec, "FILE BENCHMARK.json (compare, smoke)");
    ]
  in
  (try
     Arg.parse_argv ~current:(ref 0)
       (Array.of_list ("dmll_bench" :: rest))
       specs
       (fun f -> files := !files @ [ f ])
       "dmll_bench [run|trace|compare|smoke] [options]"
   with
  | Arg.Help m ->
      print_string m;
      exit 0
  | Arg.Bad m ->
      prerr_string m;
      exit 2);
  match (cmd, !files) with
  | "workload", [] ->
      if !workload = "" then die "--workload NAME is required";
      workload_main ~name:!workload ~seed:!seed ~trace:(!trace = 1) ~smoke:!smoke
        ~chrome:!chrome
  | "run", [] -> cmd_run ~seed:!seed ~runs:!runs ~out:!out ~smoke:!smoke
  | "trace", [] -> cmd_trace ~seed:!seed ~out:!out ~chrome:!chrome ~smoke:!smoke
  | "compare", [ a; b ] -> cmd_compare ~spec:!spec a b
  | "smoke", [] -> cmd_smoke ~spec:!spec
  | _ -> die "bad arguments (see --help)"
