(* The closed loop shared by every workload: one client, the next
   job starts only after the previous one returned.  The untraced run
   measures the end-to-end metrics; the traced run interleaves traced and
   untraced jobs (odd job indices are traced) so that it can report its
   own overhead next to the per-layer metrics. *)

module Span = Dmll_obs.Span
module Stats = Dmll_util.Stats

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

let median (xs : float list) : float =
  if xs = [] then 0.0 else Stats.median (Array.of_list xs)

let percentile (p : float) (xs : float list) : float =
  if xs = [] then 0.0 else Stats.percentile p (Array.of_list xs)

let mean (xs : float list) : float =
  if xs = [] then 0.0 else Stats.mean (Array.of_list xs)

(* First and third quartiles by the "exclusive" method of Python's
   [statistics.quantiles(xs, n=4)], so that spreads read the same here
   as in any script that checks the recorded runs. *)
let quartiles (xs : float list) : float * float =
  let d = Array.of_list (List.sort compare xs) in
  let n = Array.length d in
  if n = 0 then (0.0, 0.0)
  else if n = 1 then (d.(0), d.(0))
  else
    let q i =
      let m = n + 1 in
      let j = Stdlib.max 1 (Stdlib.min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 3)

(* ------------------------------------------------------------------ *)
(* Timed calls and bench-side spans                                    *)
(* ------------------------------------------------------------------ *)

(* [timed ?tracer name f] runs [f], returning its value and wall-clock
   seconds.  With a tracer it also records a bench span [name] whose
   arguments may depend on the value. *)
let timed ?tracer ?(args = fun _ -> []) (name : string) (f : unit -> 'a) :
    'a * float =
  match tracer with
  | None ->
      let t0 = now () in
      let v = f () in
      (v, now () -. t0)
  | Some t ->
      let t0 = now () in
      let started_us = Span.now_us t in
      let v = f () in
      let dt = now () -. t0 in
      Span.emit_now t ~cat:"bench" ~name ~args:(args v) ~started_us ();
      (v, dt)

(* Bench spans named [name] whose arguments satisfy [where]. *)
let spans ?(where = fun _ -> true) (t : Span.t) (name : string) :
    Span.span list =
  List.filter
    (fun (s : Span.span) -> String.equal s.Span.name name && where s.Span.args)
    (Span.spans t)

let seconds (ss : Span.span list) : float list =
  List.map (fun (s : Span.span) -> s.Span.dur_us /. 1e6) ss

let arg_float (s : Span.span) (k : string) : float =
  match List.assoc_opt k s.Span.args with
  | Some (Span.Float f) -> f
  | Some (Span.Int i) -> float_of_int i
  | _ -> invalid_arg ("Harness.arg_float: span has no numeric arg " ^ k)

let arg_is (k : string) (v : bool) (args : (string * Span.arg) list) : bool =
  List.assoc_opt k args = Some (Span.Bool v)

(* ------------------------------------------------------------------ *)
(* Workload instances                                                  *)
(* ------------------------------------------------------------------ *)

(* One job's result, as the workload measured it: wall-clock seconds
   around the public calls only, and whether the value matched the
   reference. *)
type job = { wall : float; ok : bool }

type instance = {
  jobs : int;  (** timed jobs; the set-up jobs are extra *)
  setup : int -> job;
      (** [setup k]: the [k]-th independent set-up, timed from compile
          to the set-up job's value *)
  job : tracer:Span.t option -> int -> job;
  layers : Span.t -> (string * float) list;
      (** the workload's per-layer metrics, after a traced timed phase;
          may run further probes off the job path *)
  problems : unit -> string list;
      (** workload checks that are not value mismatches, such as exact
          cache counts and declared keys that read 0 *)
}

type outcome = {
  metrics : (string * float) list;
  attempted : int;
  failed : int;
  problems : string list;
}

let guarded (what : string) (f : unit -> job) : job =
  try f ()
  with e ->
    Printf.eprintf "%s raised: %s\n%!" what (Printexc.to_string e);
    { wall = 0.0; ok = false }

let cpu_seconds () : float =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime +. t.Unix.tms_cutime +. t.Unix.tms_cstime

let failures (js : job array) : int =
  Array.fold_left (fun n j -> if j.ok then n else n + 1) 0 js

(* ------------------------------------------------------------------ *)
(* Host contention                                                     *)
(* ------------------------------------------------------------------ *)

(* On a shared host this process runs at a speed that changes with what
   its neighbours run, by up to 2x for seconds at a time.  A fixed
   compute loop timed just before every set-up and job tracks that speed.
   The untraced run divides each time it reports by the contention factor
   at that moment: the mean probe time over the nearby jobs, over the
   run's uncontended probe time (the 5th percentile of its probes).  The
   unadjusted values are printed beside them with the suffix _raw. *)
let probe_data = Array.init 4096 float_of_int

let probe () : float =
  let t0 = now () in
  let s = ref 0.0 in
  for _ = 1 to 64 do
    for i = 0 to Array.length probe_data - 1 do
      s := !s +. (probe_data.(i) *. 1.0000001)
    done
  done;
  ignore (Sys.opaque_identity !s);
  now () -. t0

(* Contention factor of each element: the mean of the probes within
   [radius] places of it, over [reference]. *)
let factors ~radius ~reference (ps : float array) : float array =
  let n = Array.length ps in
  Array.init n (fun i ->
      let lo = Stdlib.max 0 (i - radius) and hi = Stdlib.min (n - 1) (i + radius) in
      let window = Array.to_list (Array.sub ps lo (hi - lo + 1)) in
      mean window /. reference)

(* ------------------------------------------------------------------ *)
(* The two runs                                                        *)
(* ------------------------------------------------------------------ *)

(* The untraced run: [setups] independent set-ups (the median is
   [setup_s]), then the timed jobs. *)
let untraced (inst : instance) ~(setups : int) : outcome =
  let setup_probe = Array.make setups 0.0 and job_probe = Array.make inst.jobs 0.0 in
  let setup_runs =
    Array.init setups (fun k ->
        setup_probe.(k) <- mean (List.init 3 (fun _ -> probe ()));
        guarded "set-up" (fun () -> inst.setup k))
  in
  let cpu = Array.make inst.jobs 0.0 in
  let runs =
    Array.init inst.jobs (fun i ->
        job_probe.(i) <- probe ();
        let c0 = cpu_seconds () in
        let j = guarded (Printf.sprintf "job %d" i) (fun () -> inst.job ~tracer:None i) in
        cpu.(i) <- cpu_seconds () -. c0;
        j)
  in
  let reference = percentile 5.0 (Array.to_list job_probe) in
  let sf = factors ~radius:1 ~reference setup_probe in
  let jf = factors ~radius:8 ~reference job_probe in
  let n = float_of_int inst.jobs in
  let sum xs = Array.fold_left ( +. ) 0.0 xs in
  (* the five timed metrics, each time divided by its factor *)
  let times ~sf ~jf =
    let ok_walls f js =
      List.concat
        (List.mapi (fun i j -> if j.ok then [ j.wall /. f.(i) ] else []) (Array.to_list js))
    in
    let walls = ok_walls jf runs in
    ( median (ok_walls sf setup_runs),
      median walls,
      percentile 90.0 walls,
      n /. sum (Array.mapi (fun i j -> j.wall /. jf.(i)) runs),
      sum (Array.mapi (fun i c -> c /. jf.(i)) cpu) /. n )
  in
  let setup_s, p50, p90, per_s, cpu_s = times ~sf ~jf in
  let setup_raw, p50_raw, p90_raw, per_s_raw, cpu_raw =
    times ~sf:(Array.map (fun _ -> 1.0) sf) ~jf:(Array.map (fun _ -> 1.0) jf)
  in
  let failed_jobs = failures runs in
  let heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1e6
  in
  { metrics =
      [ ("setup_s", setup_s);
        ("job_s_p50", p50);
        ("job_s_p90", p90);
        ("jobs_per_s", per_s);
        ("cpu_s_per_job", cpu_s);
        ("peak_heap_mb", heap_mb);
        ( "error_rate",
          float_of_int (failures setup_runs + failed_jobs) /. float_of_int (setups + inst.jobs) );
        ("setup_s_raw", setup_raw);
        ("job_s_p50_raw", p50_raw);
        ("job_s_p90_raw", p90_raw);
        ("jobs_per_s_raw", per_s_raw);
        ("cpu_s_per_job_raw", cpu_raw);
        ("contention", mean (Array.to_list jf));
      ];
    attempted = setups + inst.jobs;
    failed = failures setup_runs + failed_jobs;
    problems = inst.problems ();
  }

(* The traced run: one set-up, then the same timed jobs with every odd
   job traced, then the workload's per-layer metrics.  Traced and
   untraced jobs interleave, so their ratio needs no contention factor. *)
let traced (inst : instance) (tracer : Span.t) : outcome =
  let setup = guarded "set-up" (fun () -> inst.setup 0) in
  let traced_walls = ref [] and plain_walls = ref [] in
  let minor = ref [] and major = ref [] in
  let runs =
    Array.init inst.jobs (fun i ->
        let is_traced = i mod 2 = 1 in
        (* [Gc.quick_stat]'s minor_words only advances at minor collections *)
        let w0 = Gc.minor_words () and g0 = Gc.quick_stat () in
        let j =
          guarded (Printf.sprintf "job %d" i) (fun () ->
              inst.job ~tracer:(if is_traced then Some tracer else None) i)
        in
        let w1 = Gc.minor_words () and g1 = Gc.quick_stat () in
        if j.ok && is_traced then begin
          traced_walls := j.wall :: !traced_walls;
          minor := ((w1 -. w0) /. 1e6) :: !minor;
          major :=
            float_of_int (g1.Gc.major_collections - g0.Gc.major_collections)
            :: !major
        end
        else if j.ok then plain_walls := j.wall :: !plain_walls;
        j)
  in
  let own =
    [ ("gc.minor_mwords_per_job", median !minor);
      ("gc.major_per_job", mean !major);
      ("trace.overhead", (median !traced_walls /. median !plain_walls) -. 1.0);
    ]
  in
  { metrics = own @ inst.layers tracer;
    attempted = 1 + inst.jobs;
    failed = failures [| setup |] + failures runs;
    problems = inst.problems ();
  }
