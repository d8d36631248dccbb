(** Partitioning analysis — Algorithm 1 of the paper.

    A forward dataflow pass over the program's let-spine decides, for every
    collection, whether it should be [Local] (one memory region) or
    [Partitioned] (spread across regions), seeded by the user's annotations
    on data sources and propagated by "move the computation to the data":

    - a parallel op (multiloop) consuming a [Partitioned] collection has
      its own output [Partitioned] when the output is partitionable
      (a [Collect]); reductions and bucket generators produce [Local]
      results;
    - sequential code consuming a [Partitioned] collection draws a warning
      unless whitelisted (length reads, whitelisted externs);
    - a [Partitioned] input with a non-local-friendly stencil triggers the
      nested-pattern rewrites, tried one at a time (keeping the search
      linear and order-independent, §4.2); if none improves the stencil the
      runtime falls back to remote reads, with a warning. *)

open Dmll_ir
open Exp
module R = Dmll_opt.Rewrite
module Span = Dmll_obs.Span

type warning =
  | Sequential_on_partitioned of Stencil.target
      (** sequential (non-multiloop) code dereferences a partitioned
          collection: disallowed on clusters, allowed with a warning on
          shared memory (§4.3) *)
  | Remote_access of Stencil.target * Stencil.t
      (** a partitioned collection is consumed with a stencil that cannot
          be made local by any available rewrite; the runtime will fetch
          remotely (§4.2 fallback) *)

(** Partition warnings in the shared diagnostic type, so [dmllc --lint]
    and the verifier report through one formatter. *)
let warning_to_diag = function
  | Sequential_on_partitioned t ->
      Diag.warning ~rule:"P-SEQ-ON-PARTITIONED"
        "sequential access to partitioned collection %s"
        (Stencil.target_to_string t)
  | Remote_access (t, s) ->
      Diag.warning ~rule:"P-REMOTE-ACCESS"
        "partitioned collection %s has %s stencil: runtime data movement"
        (Stencil.target_to_string t) (Stencil.to_string s)

let warning_to_string w = Diag.to_string (warning_to_diag w)

(** One cost-guided choice made during the stencil-triggered rewrite
    search: every applicable candidate (plus ["keep"], the no-rewrite
    alternative) with its predicted communication volume, and which one
    won.  The search stays linear and order-independent (§4.2); the comm
    plan is the objective, not a new search space. *)
type decision = {
  iteration : int;
  chosen : string;  (** winning rule name, or ["keep"] *)
  candidates : (string * float) list;
      (** every alternative considered, with predicted total bytes *)
  provenance : string;
      (** which selector produced the decision: ["greedy"] for this
          linear search, ["ilp"] / ["ilp-fallback:greedy"] /
          ["ilp-tie:greedy"] for the global plan selector ({!Plan}) *)
}

type report = {
  program : exp;  (** possibly rewritten by stencil-triggered transforms *)
  layouts : (Stencil.target * layout) list;
  stencils : (Stencil.target * Stencil.t) list;  (** global, per collection *)
  co_partitioned : (Stencil.target * Stencil.target) list;
  warnings : warning list;
  rewrites_applied : string list;
  decisions : decision list;
      (** chosen-vs-rejected alternatives, one entry per search iteration
          where any rewrite was applicable *)
}

let layout_of (t : Stencil.target) (layouts : (Stencil.target * layout) list) : layout =
  match List.find_opt (fun (t', _) -> Stencil.target_equal t t') layouts with
  | Some (_, l) -> l
  | None -> Local

(* ------------------------------------------------------------------ *)
(* Layout propagation                                                  *)
(* ------------------------------------------------------------------ *)

(* All Input annotations in the program. *)
let input_layouts (e : exp) : (Stencil.target * layout) list =
  let tbl = Hashtbl.create 8 in
  ignore
    (fold
       (fun () n ->
         match n with
         | Input (name, (Types.Arr _ | Types.Map _), l) -> Hashtbl.replace tbl name l
         | _ -> ())
       () e);
  Hashtbl.fold (fun n l acc -> (Stencil.Tinput n, l) :: acc) tbl []

(* Collection targets read anywhere inside a loop. *)
let loop_reads (l : loop) : Stencil.target list =
  List.map fst (Stencil.of_loop l)

let is_parallel = function Loop _ -> true | _ -> false

let output_partitionable (l : loop) : bool =
  List.for_all (function Collect _ -> true | _ -> false) l.gens

(* Sequential dereference census: does [e] (treated as sequential code —
   i.e. not descending into loops, which are parallel ops) dereference any
   partitioned collection?  [Len] and whitelisted externs are safe. *)
let sequential_derefs (layouts : (Stencil.target * layout) list) (e : exp) :
    Stencil.target list =
  let hits = ref [] in
  let note t =
    if layout_of t layouts = Partitioned && not (List.exists (Stencil.target_equal t) !hits)
    then hits := t :: !hits
  in
  let rec go e =
    match e with
    | Loop _ -> () (* parallel op: analyzed separately *)
    | Len _ -> () (* whitelisted: size reads do not dereference data *)
    | Extern { whitelisted = true; _ } -> ()
    | Read (base, ix) | KeyAt (base, ix) ->
        (match Stencil.target_of_exp base with Some t -> note t | None -> go base);
        go ix
    | MapRead (base, k, d) ->
        (match Stencil.target_of_exp base with Some t -> note t | None -> go base);
        go k;
        Option.iter go d
    | _ -> ignore (map_sub (fun s -> go s; s) e)
  in
  go e;
  !hits

(* Propagate layouts along the outer let-spine. *)
let propagate (e : exp) : (Stencil.target * layout) list * warning list =
  let layouts = ref (input_layouts e) in
  let warnings = ref [] in
  let set t l = layouts := (t, l) :: List.filter (fun (t', _) -> not (Stencil.target_equal t t')) !layouts in
  let rec spine e =
    match e with
    | Let (s, rhs, body) ->
        (match rhs with
        | Loop l ->
            let inputs = loop_reads l in
            let partitioned =
              List.filter (fun t -> layout_of t !layouts = Partitioned) inputs
            in
            if partitioned <> [] && output_partitionable l then
              set (Stencil.Tsym s) Partitioned
            else set (Stencil.Tsym s) Local
        | Input (_, _, l) -> set (Stencil.Tsym s) l
        | Var s' -> set (Stencil.Tsym s) (layout_of (Stencil.Tsym s') !layouts)
        | _ ->
            (* sequential right-hand side *)
            List.iter
              (fun t -> warnings := Sequential_on_partitioned t :: !warnings)
              (sequential_derefs !layouts rhs);
            set (Stencil.Tsym s) Local);
        spine body
    | Loop _ -> ()
    | _ ->
        List.iter
          (fun t -> warnings := Sequential_on_partitioned t :: !warnings)
          (sequential_derefs !layouts e)
  in
  spine e;
  (!layouts, List.rev !warnings)

(* ------------------------------------------------------------------ *)
(* Stencil checking with transform fallback                            *)
(* ------------------------------------------------------------------ *)

(* (loop, target) pairs where a partitioned collection is consumed with a
   non-local-friendly stencil. *)
let bad_accesses (e : exp) (layouts : (Stencil.target * layout) list) :
    (Stencil.target * Stencil.t) list =
  List.concat_map
    (fun l ->
      List.filter_map
        (fun (t, s) ->
          if layout_of t layouts = Partitioned && not (Stencil.local_friendly s) then
            Some (t, s)
          else None)
        (Stencil.of_loop l))
    (Stencil.outer_loops e)

(** Predicted total communication volume of [e] under its own propagated
    layouts — the objective the rewrite search minimizes.  Also the
    tie-break objective the driver threads into horizontal fusion for
    cluster targets ({!Dmll_opt.Fusion.horizontal_with}) and the cost
    the global plan selector ({!Plan}) minimizes. *)
let predicted_volume ?input_lens ?(machine = Dmll_machine.Machine.ec2_cluster)
    (e : exp) : float =
  let layouts, _ = propagate e in
  Comm.static_total ?input_lens ~machine
    ~layout_of:(fun t -> layout_of t layouts)
    e

let warning_equal (a : warning) (b : warning) : bool =
  match (a, b) with
  | Sequential_on_partitioned t1, Sequential_on_partitioned t2 ->
      Stencil.target_equal t1 t2
  | Remote_access (t1, s1), Remote_access (t2, s2) ->
      Stencil.target_equal t1 t2 && s1 = s2
  | _ -> false

let dedup_warnings (ws : warning list) : warning list =
  List.fold_left
    (fun acc w -> if List.exists (warning_equal w) acc then acc else acc @ [ w ])
    [] ws

(** Assemble a {!report} for a finished plan: propagate layouts on the
    final [program], convert the remaining non-local-friendly accesses
    into {!Remote_access} warnings, and attach the rewrite/decision
    history.  Shared by the greedy search below and by the global plan
    selector ({!Plan}), so both selectors produce reports with identical
    shape. *)
let finalize ~(rewrites_applied : string list) ~(decisions : decision list)
    (program : exp) : report =
  let layouts, warnings = propagate program in
  let bad = bad_accesses program layouts in
  let warnings =
    dedup_warnings
      (warnings @ List.map (fun (t, s) -> Remote_access (t, s)) bad)
  in
  let is_partitioned t = layout_of t layouts = Partitioned in
  { program;
    layouts;
    stencils = Stencil.global program;
    co_partitioned = Stencil.co_partition_pairs program ~is_partitioned;
    warnings;
    rewrites_applied;
    decisions;
  }

(** Run the full analysis.  [transforms] defaults to the CPU set of
    Figure-3 rules; [reoptimize] is applied after any accepted rewrite so
    fusion can clean up (the paper's pipeline does the same for k-means:
    Conditional Reduce is followed by re-fusion); its default is the
    shared-memory pipeline with [?fusion_objective] threaded into
    horizontal fusion, so cluster-target re-fusion keeps honoring the
    communication veto.

    Rewrite selection is cost-guided: at each iteration every applicable
    rule is evaluated on the same program (linear, order-independent) and
    the candidate with the lowest predicted communication volume — which
    may be "keep", accepting remote reads when they are cheaper than the
    rewrite's gathers — wins; strict improvement is required, so the
    search terminates.  [machine] and [input_lens] parameterize the
    volume prediction ({!Comm}).

    [?tracer] records the analysis on the compile timeline: one span per
    stencil-classification pass (cat ["partition"], with partitioned and
    non-local-friendly access counts) and one span per cost-guided
    rewrite decision (with the chosen rule and the predicted volumes of
    the winner and of keeping the program). *)
let analyze ?tracer ?(transforms = Dmll_opt.Rules_nested.cpu_rules)
    ?fusion_objective ?reoptimize ?input_lens ?machine (e : exp) : report =
  let reoptimize =
    match reoptimize with
    | Some f -> f
    | None ->
        fun e ->
          (Dmll_opt.Pipeline.optimize_with ?fusion_objective e)
            .Dmll_opt.Pipeline.program
  in
  let volume e = predicted_volume ?input_lens ?machine e in
  let rewrites = ref [] in
  let decisions = ref [] in
  let trace_decision (d : decision) =
    match tracer with
    | None -> ()
    | Some tr ->
        let now = Span.now_us tr in
        Span.emit tr ~cat:"partition" ~name:"rewrite-decision"
          ~args:
            ([ ("iteration", Span.Int d.iteration);
               ("chosen", Span.Str d.chosen);
             ]
            @ List.map
                (fun (n, v) -> ("bytes:" ^ n, Span.Float v))
                d.candidates)
          ~ts_us:now ~dur_us:0.0 ()
  in
  let rec fix e iters =
    let layouts, warnings, bad =
      Span.with_span ?tracer ~cat:"partition" "stencil-classification"
        (fun () ->
          let layouts, warnings = propagate e in
          (layouts, warnings, bad_accesses e layouts))
    in
    (match tracer with
    | None -> ()
    | Some tr ->
        Span.emit tr ~cat:"partition" ~name:"classification-result"
          ~args:
            [ ("iteration", Span.Int iters);
              ( "partitioned",
                Span.Int
                  (List.length
                     (List.filter (fun (_, l) -> l = Partitioned) layouts)) );
              ("non_local_friendly", Span.Int (List.length bad));
            ]
          ~ts_us:(Span.now_us tr) ~dur_us:0.0 ());
    if bad = [] || iters >= 8 then (e, layouts, warnings, bad)
    else
      (* try each rewrite rule, one at a time, linear search (§4.2);
         every applicable candidate is scored on the same program *)
      let try_rule rule =
        let trace = R.new_trace () in
        let e' = R.sweep [ rule ] trace e in
        if trace.R.applied = [] then None
        else begin
          (* debug mode: verify the stencil-triggered rewrite itself *)
          Dmll_opt.Pipeline.run_check ("partition-rule:" ^ rule.R.rname) e';
          let e' = reoptimize e' in
          Some (rule.R.rname, e', volume e')
        end
      in
      let applicable = List.filter_map try_rule transforms in
      if applicable = [] then (e, layouts, warnings, bad)
      else begin
        let v_keep = volume e in
        let best_name, best_e, best_v =
          List.fold_left
            (fun ((_, _, bv) as best) ((_, _, v) as cand) ->
              if v < bv then cand else best)
            (List.hd applicable) (List.tl applicable)
        in
        let candidates =
          ("keep", v_keep) :: List.map (fun (n, _, v) -> (n, v)) applicable
        in
        if best_v < v_keep then begin
          let d =
            { iteration = iters;
              chosen = best_name;
              candidates;
              provenance = "greedy";
            }
          in
          decisions := !decisions @ [ d ];
          trace_decision d;
          rewrites := !rewrites @ [ best_name ];
          fix best_e (iters + 1)
        end
        else begin
          (* every rewrite moves at least as much data as the remote
             reads it removes: keep the program, fall back to the
             runtime's remote fetches *)
          let d =
            { iteration = iters;
              chosen = "keep";
              candidates;
              provenance = "greedy";
            }
          in
          decisions := !decisions @ [ d ];
          trace_decision d;
          ignore best_e;
          (e, layouts, warnings, bad)
        end
      end
  in
  let program, _layouts, _warnings, _bad = fix e 0 in
  finalize ~rewrites_applied:!rewrites ~decisions:!decisions program

(** All of a report's warnings as structured diagnostics. *)
let diags (r : report) : Diag.t list = List.map warning_to_diag r.warnings

(** The decision log in the machine-readable schema [dmllc --explain comm
    --json] emits (field names/types are golden-tested — downstream
    tooling relies on them). *)
let decisions_to_json (ds : decision list) : string =
  let one (d : decision) =
    Printf.sprintf
      "{\"iteration\":%d,\"chosen\":\"%s\",\"provenance\":\"%s\",\"candidates\":[%s]}"
      d.iteration d.chosen d.provenance
      (String.concat ","
         (List.map
            (fun (n, v) -> Printf.sprintf "{\"rule\":\"%s\",\"bytes\":%.0f}" n v)
            d.candidates))
  in
  "[" ^ String.concat "," (List.map one ds) ^ "]"

(** One application's complete [--explain comm --json] object. *)
let explain_to_json ~(app : string) ~(decisions : decision list)
    (summary : Comm.summary) : string =
  Printf.sprintf "{\"app\":\"%s\",\"decisions\":%s,\"comm\":%s}"
    (Comm.json_escape app)
    (decisions_to_json decisions)
    (Comm.summary_to_json summary)
