(** Global plan-space analysis with ILP-selected joint decisions.

    The greedy searches ({!Partition.analyze}'s per-iteration rewrite
    pick, {!Dmll_opt.Fusion.horizontal_with}'s per-candidate veto)
    commit to Figure-3 stencil rewrites, horizontal fusions, and
    partition layouts one decision at a time, so they cannot see that an
    individually-worse rewrite can unlock a fusion that wins globally.
    This module makes the joint decision instead:

    + {b Enumerate} the legal plan space of a program —
      - {e rewrite configurations}: bounded-depth branching over the
        stencil-triggered Figure-3 rules (every applicable rule at every
        step, not just the locally-cheapest), deduplicated up to alpha
        equivalence and capped;
      - {e fusion candidates} per configuration: adjacent independent
        multiloop pairs from a pairwise interference graph (size
        equality, purity from the effects analysis, no dependence edge),
        each materialized with the unconditional horizontal-fusion rule;
      - {e partition-layout candidates} per configuration: partitioned
        inputs whose global stencil replicates anyway ([All]/[Unknown])
        may be demoted to [Local], provided every distributed loop keeps
        at least one partitioned source — the co-partition layouts the
        propagation derives are attached to each candidate via its
        materialized program.
    + {b Cost} every candidate symbolically: the {!Comm} plan terms of
      its materialized program (total predicted bytes), plus a {!Mem}
      residency penalty when the configuration's predicted peak exceeds
      the per-node budget — budget-infeasible combinations stay legal
      but pay for their overshoot.
    + {b Select} the cost-minimal consistent assignment with a 0-1 ILP
      ({!Ilp}): one variable per configuration (exactly-one), per fusion
      candidate and per demotion (implication into their configuration,
      at-most-one per shared loop, coverage constraints for demotions).
    + {b Guard}: the selected plan is re-verified with the PR 1 verifier
      under debug ({!Dmll_opt.Pipeline.run_check}), and compared against
      the end-to-end greedy plan on the {e true} (materialized)
      objective — on a solver timeout, an infeasible encoding, or a
      greedy tie/win, the greedy plan is kept and the decision records
      say so ([provenance]).

    The ILP estimate treats fusion/demotion deltas as additive; the
    final comparison never does — it re-prices the materialized program,
    so an estimate error can only cost an improvement, never a
    regression past greedy. *)

open Dmll_ir
open Exp
module R = Dmll_opt.Rewrite
module Fusion = Dmll_opt.Fusion
module Pipeline = Dmll_opt.Pipeline
module M = Dmll_machine.Machine
module Span = Dmll_obs.Span

(** Which plan selector a compile uses ({!Dmll.Config.plan_selector}):
    the historical greedy searches, or this module's global ILP.  (The
    [Ilp] constructor and the {!Ilp} solver module live in different
    namespaces; no shadowing.) *)
type selector = Greedy | Ilp

(* ------------------------------------------------------------------ *)
(* Costing                                                             *)
(* ------------------------------------------------------------------ *)

(** Weight of the memory-residency penalty, in objective bytes per byte
    of predicted peak overshoot: infeasible combinations stay in the
    space but must buy their overshoot back fourfold in saved traffic
    before they can win. *)
let mem_penalty_weight = 4.0

let volume ?input_lens ~machine e =
  Partition.predicted_volume ?input_lens ~machine e

(* (peak bytes, penalty bytes) of [e] under its own propagated layouts. *)
let mem_cost ?input_lens ~machine ?budget_gb (e : exp) : float * float =
  let layouts, _ = Partition.propagate e in
  let layout_of t = Partition.layout_of t layouts in
  let s = Mem.summarize ?input_lens ~machine ?budget_gb ~layout_of e in
  let over = Float.max 0.0 (s.Mem.peak_bytes -. s.Mem.budget_bytes) in
  (s.Mem.peak_bytes, mem_penalty_weight *. over)

(* Post-materialization cleanup: the shared-memory pipeline with
   horizontal fusion removed — the planner owns that decision. *)
let reoptimize (e : exp) : exp =
  (Pipeline.optimize_with ~horizontal_fusion:false e).Pipeline.program

(* ------------------------------------------------------------------ *)
(* Plan space                                                          *)
(* ------------------------------------------------------------------ *)

type fusion_candidate = {
  label : string;  (** ["fuse:<s1>+<s2>"] *)
  s1 : Sym.t;  (** result binder of the upper loop *)
  s2 : Sym.t;  (** result binder of the lower loop *)
  fused_program : exp;  (** configuration program with only this fusion *)
  delta_bytes : float;  (** volume change vs. the configuration *)
  delta_penalty : float;  (** residency-penalty change *)
}

type demotion_candidate = {
  dlabel : string;  (** ["local:<input>"] *)
  input : string;
  demoted_program : exp;
  ddelta_bytes : float;
  ddelta_penalty : float;
}

type rewrite_config = {
  cid : int;
  rewrites : string list;  (** Figure-3 rule names, application order *)
  program : exp;
  base_bytes : float;
  mem_peak_bytes : float;
  mem_penalty : float;
  fusions : fusion_candidate list;
  demotions : demotion_candidate list;
  demotion_groups : (int list * int) list;
      (** per-loop coverage constraints, as (demotion indexes, max) *)
}

type space = {
  configs : rewrite_config list;  (** [cid 0] is always "keep" *)
  truncated : bool;  (** the enumeration hit a cap *)
}

let config_label (c : rewrite_config) : string =
  match c.rewrites with [] -> "keep" | rs -> String.concat "+" rs

let max_depth = 8
let max_configs = 24

(* Branch the stencil-triggered rewrite search to bounded depth: from
   each program with non-local-friendly accesses, apply every applicable
   Figure-3 rule (one sweep, then cleanup — exactly what one greedy
   iteration does) and recurse.  Programs are deduplicated up to alpha
   equivalence; the greedy descent is a path in this tree, so the ILP's
   space contains every plan the greedy search can reach within the
   depth bound. *)
let enumerate_rewrites ~(transforms : R.rule list) (e0 : exp) :
    (string list * exp) list * bool =
  let seen : (string list * exp) list ref = ref [] in
  let truncated = ref false in
  let try_add rewrites prog =
    if List.exists (fun (_, p) -> alpha_equal p prog) !seen then false
    else if List.length !seen >= max_configs then begin
      truncated := true;
      false
    end
    else begin
      seen := !seen @ [ (rewrites, prog) ];
      true
    end
  in
  let rec go rewrites prog depth =
    if depth < max_depth then begin
      let layouts, _ = Partition.propagate prog in
      if Partition.bad_accesses prog layouts <> [] then
        List.iter
          (fun (rule : R.rule) ->
            let trace = R.new_trace () in
            let prog' = R.sweep [ rule ] trace prog in
            if trace.R.applied <> [] then begin
              Pipeline.run_check ("plan-rule:" ^ rule.R.rname) prog';
              let prog' = reoptimize prog' in
              let rewrites' = rewrites @ [ rule.R.rname ] in
              if try_add rewrites' prog' then go rewrites' prog' (depth + 1)
            end)
          transforms
    end
  in
  ignore (try_add [] e0);
  go [] e0 0;
  (!seen, !truncated)

(* Adjacent multiloop pairs along the let-spine: the nodes of the
   interference graph.  [let_float] (part of every cleanup pipeline)
   has already floated non-loop bindings upward, so independent loops
   sit adjacent when they can. *)
let rec spine_pairs (e : exp) : ((Sym.t * loop) * (Sym.t * loop)) list =
  match e with
  | Let (s1, Loop l1, (Let (s2, Loop l2, _) as rest)) ->
      ((s1, l1), (s2, l2)) :: spine_pairs rest
  | Let (_, _, body) -> spine_pairs body
  | _ -> []

(** No interference edge between two adjacent loops: alpha-equal pure
    sizes, both bodies pure (effects analysis — impure loops may not be
    merged or reordered), no dependence of the lower loop on the upper
    loop's result, and no write-target overlap (vacuous for pure loops,
    load-bearing for whitelisted externs). *)
let fusible ((s1, l1) : Sym.t * loop) ((_, l2) : Sym.t * loop) : bool =
  alpha_equal l1.size l2.size
  && R.pure l1.size
  && Effects.pure (Loop l1)
  && Effects.pure (Loop l2)
  && (not (Sym.Set.mem s1 (free_vars (Loop l2))))
  && List.for_all
       (fun t ->
         not (List.exists (Stencil.target_equal t) (Effects.write_targets (Loop l2))))
       (Effects.write_targets (Loop l1))

(* Apply the unconditional horizontal-fusion rule to exactly the
   [Let (s1, Loop _, Let (s2, Loop _, _))] node named by the pair. *)
let materialize_fusion ~(s1 : Sym.t) ~(s2 : Sym.t) (e : exp) : exp option =
  Fusion.replace_first
    (fun t ->
      match t with
      | Let (a, Loop _, Let (b, Loop _, _))
        when Sym.equal a s1 && Sym.equal b s2 ->
          Fusion.horizontal.R.apply t
      | _ -> None)
    e

(* Rewrite every [Input (input, _, Partitioned)] to [Local]. *)
let demote_input ~(input : string) (e : exp) : exp =
  let rec go e =
    match e with
    | Input (n, ty, Partitioned) when String.equal n input ->
        Input (n, ty, Local)
    | _ -> map_sub go e
  in
  go e

(* A materialized candidate must still pass the parallel-safety
   verifier: an Error-severity finding disqualifies it from the space
   (legality, not cost). *)
let legal (e : exp) : bool =
  not (Diag.has_errors (Verify.run ~declared:(Exp.free_vars e) e))

(* Fusion candidates of one configuration program. *)
let fusion_candidates ~vol ~pen (prog : exp) ~(base_bytes : float)
    ~(base_penalty : float) : fusion_candidate list =
  List.filter_map
    (fun ((s1, _l1), (s2, _l2)) ->
      match materialize_fusion ~s1 ~s2 prog with
      | None -> None
      | Some fused ->
          let fused = reoptimize fused in
          if not (legal fused) then None
          else
            Some
              { label =
                  Printf.sprintf "fuse:%s+%s" (Sym.name s1) (Sym.name s2);
                s1;
                s2;
                fused_program = fused;
                delta_bytes = vol fused -. base_bytes;
                delta_penalty = pen fused -. base_penalty;
              })
    (List.filter (fun (a, b) -> fusible a b) (spine_pairs prog))

(* Demotion candidates of one configuration program, plus the per-loop
   coverage constraints keeping every distributed loop distributed. *)
let demotion_candidates ~vol ~pen (prog : exp) ~(base_bytes : float)
    ~(base_penalty : float) : demotion_candidate list * (int list * int) list
    =
  let layouts, _ = Partition.propagate prog in
  let layout_of t = Partition.layout_of t layouts in
  let eligible =
    List.filter_map
      (fun (t, s) ->
        match t with
        | Stencil.Tinput n
          when layout_of t = Partitioned && not (Stencil.local_friendly s) ->
            Some n
        | _ -> None)
      (Stencil.global prog)
  in
  let eligible = List.sort_uniq String.compare eligible in
  let cands =
    List.filter_map
      (fun input ->
        let demoted = reoptimize (demote_input ~input prog) in
        if not (legal demoted) then None
        else
          Some
            { dlabel = "local:" ^ input;
              input;
              demoted_program = demoted;
              ddelta_bytes = vol demoted -. base_bytes;
              ddelta_penalty = pen demoted -. base_penalty;
            })
      eligible
  in
  (* for every outer loop reading partitioned sources, at most
     (sources - 1) of its demotable inputs may go Local *)
  let groups =
    List.filter_map
      (fun l ->
        let sources =
          List.filter
            (fun t -> layout_of t = Partitioned)
            (Partition.loop_reads l)
        in
        let demotable =
          List.mapi (fun i c -> (i, c)) cands
          |> List.filter_map (fun (i, (c : demotion_candidate)) ->
                 if
                   List.exists
                     (fun t ->
                       Stencil.target_equal t (Stencil.Tinput c.input))
                     sources
                 then Some i
                 else None)
        in
        let n_sources = List.length sources in
        if n_sources > 0 && List.length demotable >= n_sources then
          Some (demotable, n_sources - 1)
        else None)
      (Stencil.outer_loops prog)
  in
  (cands, groups)

(** Enumerate the full plan space of [e]. *)
let enumerate ?(transforms = Dmll_opt.Rules_nested.cpu_rules) ?input_lens
    ?(machine = M.ec2_cluster) ?budget_gb (e : exp) : space =
  let vol p = volume ?input_lens ~machine p in
  let pen p = snd (mem_cost ?input_lens ~machine ?budget_gb p) in
  let programs, truncated = enumerate_rewrites ~transforms e in
  let configs =
    List.mapi
      (fun cid (rewrites, prog) ->
        let base_bytes = vol prog in
        let mem_peak_bytes, mem_penalty =
          mem_cost ?input_lens ~machine ?budget_gb prog
        in
        let fusions =
          fusion_candidates ~vol ~pen prog ~base_bytes
            ~base_penalty:mem_penalty
        in
        let demotions, demotion_groups =
          demotion_candidates ~vol ~pen prog ~base_bytes
            ~base_penalty:mem_penalty
        in
        { cid;
          rewrites;
          program = prog;
          base_bytes;
          mem_peak_bytes;
          mem_penalty;
          fusions;
          demotions;
          demotion_groups;
        })
      programs
  in
  { configs; truncated }

(* ------------------------------------------------------------------ *)
(* ILP encoding                                                        *)
(* ------------------------------------------------------------------ *)

type var_meta =
  | Vconfig of int  (** configuration index *)
  | Vfusion of int * int  (** (configuration, fusion index) *)
  | Vdemote of int * int  (** (configuration, demotion index) *)

let encode (s : space) : Ilp.problem * var_meta array =
  let metas = ref [] in
  let costs = ref [] in
  let constrs = ref [] in
  let n = ref 0 in
  let add meta cost =
    let v = !n in
    incr n;
    metas := meta :: !metas;
    costs := cost :: !costs;
    v
  in
  let config_vars =
    List.map
      (fun c -> add (Vconfig c.cid) (c.base_bytes +. c.mem_penalty))
      s.configs
  in
  constrs := [ Ilp.Exactly_one config_vars ];
  List.iteri
    (fun ci (c : rewrite_config) ->
      let yc = List.nth config_vars ci in
      let fusion_vars =
        List.mapi
          (fun fi (f : fusion_candidate) ->
            let v = add (Vfusion (ci, fi)) (f.delta_bytes +. f.delta_penalty) in
            constrs := Ilp.Implies (v, yc) :: !constrs;
            (v, f))
          c.fusions
      in
      (* at most one fusion per shared loop: adjacent candidates share
         their middle loop *)
      List.iteri
        (fun i (v1, (f1 : fusion_candidate)) ->
          List.iteri
            (fun j (v2, (f2 : fusion_candidate)) ->
              if
                i < j
                && (Sym.equal f1.s2 f2.s1 || Sym.equal f1.s1 f2.s1
                  || Sym.equal f1.s2 f2.s2)
              then constrs := Ilp.At_most ([ v1; v2 ], 1) :: !constrs)
            fusion_vars)
        fusion_vars;
      let demote_vars =
        List.mapi
          (fun di (d : demotion_candidate) ->
            let v =
              add (Vdemote (ci, di)) (d.ddelta_bytes +. d.ddelta_penalty)
            in
            constrs := Ilp.Implies (v, yc) :: !constrs;
            v)
          c.demotions
      in
      List.iter
        (fun (idxs, k) ->
          let vs = List.map (fun i -> List.nth demote_vars i) idxs in
          constrs := Ilp.At_most (vs, k) :: !constrs)
        c.demotion_groups)
    s.configs;
  let nvars = !n in
  let cost = Array.of_list (List.rev !costs) in
  let metas = Array.of_list (List.rev !metas) in
  ({ Ilp.nvars; cost; constrs = List.rev !constrs }, metas)

(* ------------------------------------------------------------------ *)
(* Selection                                                           *)
(* ------------------------------------------------------------------ *)

(** One end-to-end plan: the materialized program and how it was put
    together.  [predicted_bytes] is the true {!Comm} volume of
    [program]; [objective] the ILP estimate that selected it (identical
    to [predicted_bytes] plus penalties when the estimate was exact). *)
type choice = {
  plabel : string;
  program : exp;
  predicted_bytes : float;
  objective : float;
  rewrites : string list;
  fused : string list;
  demoted : string list;
}

type explain = {
  nodes : int;
  provenance : string;
      (** ["ilp"], ["ilp-tie:greedy"], or ["ilp-fallback:greedy"] *)
  chosen : choice;
  greedy : choice;
  ilp : choice option;  (** [None] when no round produced a solution *)
  space : space;  (** the last round's enumerated space *)
  stats : Ilp.stats option;  (** the last solve's statistics *)
  rounds : int;
}

type result = { report : Partition.report; explain : explain }

let max_rounds = 3
let eps = 1e-6

(* Decode a solved assignment against the space. *)
let decode (s : space) (metas : var_meta array) (assignment : bool array) :
    rewrite_config * fusion_candidate list * demotion_candidate list =
  let config = ref (List.hd s.configs) in
  let fusions = ref [] in
  let demotions = ref [] in
  Array.iteri
    (fun v set ->
      if set then
        match metas.(v) with
        | Vconfig ci -> config := List.nth s.configs ci
        | Vfusion (ci, fi) ->
            fusions := (ci, List.nth (List.nth s.configs ci).fusions fi) :: !fusions
        | Vdemote (ci, di) ->
            demotions :=
              (ci, List.nth (List.nth s.configs ci).demotions di) :: !demotions)
    assignment;
  let c = !config in
  (* implications guarantee selected fusions/demotions belong to the
     selected configuration; filter defensively anyway *)
  ( c,
    List.rev_map snd (List.filter (fun (ci, _) -> ci = c.cid) !fusions),
    List.rev_map snd (List.filter (fun (ci, _) -> ci = c.cid) !demotions) )

(* Materialize one assignment: apply the selected fusions (spine order
   is preserved; disjoint pairs do not disturb each other), then the
   demotions, then clean up. *)
let materialize (c : rewrite_config) (fs : fusion_candidate list)
    (ds : demotion_candidate list) : exp =
  let prog =
    List.fold_left
      (fun acc (f : fusion_candidate) ->
        match materialize_fusion ~s1:f.s1 ~s2:f.s2 acc with
        | Some p -> p
        | None -> acc)
      c.program fs
  in
  let prog =
    List.fold_left
      (fun acc (d : demotion_candidate) -> demote_input ~input:d.input acc)
      prog ds
  in
  reoptimize prog

(** Run the global plan selection on a generically-optimized program
    (horizontal fusion deferred).  Returns a {!Partition.report} whose
    [decisions] carry solver provenance, plus the full {!explain}
    record behind [dmllc --explain plan].

    The greedy baseline is computed end-to-end (pipeline fusion with the
    threaded comm veto, then {!Partition.analyze}); the ILP plan must
    beat it on the true materialized objective or the greedy plan is
    kept ([provenance = "ilp-tie:greedy"] on a tie,
    ["ilp-fallback:greedy"] on a solver timeout/failure or estimate
    shortfall). *)
let analyze ?tracer ?(transforms = Dmll_opt.Rules_nested.cpu_rules)
    ?input_lens ?(machine = M.ec2_cluster) ?budget_gb
    ?(node_budget = Ilp.default_node_budget) (e : exp) : result =
  let vol p = volume ?input_lens ~machine p in
  let fusion_objective p = vol p in
  (* ---- greedy baseline, end to end ---- *)
  let greedy_generic =
    (Pipeline.optimize_with ~fusion_objective e).Pipeline.program
  in
  let greedy_rep =
    Partition.analyze ~transforms ~fusion_objective ?input_lens ~machine
      greedy_generic
  in
  let greedy_prog = greedy_rep.Partition.program in
  let greedy_bytes = vol greedy_prog in
  let greedy_choice =
    { plabel = "greedy";
      program = greedy_prog;
      predicted_bytes = greedy_bytes;
      objective = greedy_bytes;
      rewrites = greedy_rep.Partition.rewrites_applied;
      fused = [];
      demoted = [];
    }
  in
  (* ---- ILP rounds: enumerate, solve, materialize; iterate so chained
     fusions (pairs that only become adjacent after a first merge) are
     reachable ---- *)
  let timed_out = ref false in
  let solver_failed = ref false in
  let last_space = ref (enumerate ~transforms ?input_lens ~machine ?budget_gb e)
  in
  let last_stats = ref None in
  let rec rounds round prog acc_rewrites acc_fused acc_demoted obj =
    if round >= max_rounds then (round, prog, acc_rewrites, acc_fused, acc_demoted, obj)
    else begin
      let s =
        if round = 0 then !last_space
        else enumerate ~transforms ?input_lens ~machine ?budget_gb prog
      in
      last_space := s;
      let problem, metas = encode s in
      match Ilp.solve ~node_budget problem with
      | None ->
          solver_failed := true;
          (round, prog, acc_rewrites, acc_fused, acc_demoted, obj)
      | Some sol ->
          last_stats := Some sol.Ilp.stats;
          if sol.Ilp.stats.Ilp.timed_out then timed_out := true;
          let c, fs, ds = decode s metas sol.Ilp.assignment in
          if c.rewrites = [] && fs = [] && ds = [] then
            (round + 1, prog, acc_rewrites, acc_fused, acc_demoted, obj)
          else begin
            let prog' = materialize c fs ds in
            (* re-verify the selected plan (PR 1 verifier under debug) *)
            Pipeline.run_check "plan:selected" prog';
            let v' = vol prog' in
            if v' < vol prog -. eps then
              rounds (round + 1) prog'
                (acc_rewrites @ c.rewrites)
                (acc_fused @ List.map (fun f -> f.label) fs)
                (acc_demoted @ List.map (fun d -> d.dlabel) ds)
                sol.Ilp.objective
            else (round + 1, prog, acc_rewrites, acc_fused, acc_demoted, obj)
          end
    end
  in
  let base_bytes = vol e in
  let n_rounds, ilp_prog, ilp_rewrites, ilp_fused, ilp_demoted, ilp_obj =
    rounds 0 e [] [] [] base_bytes
  in
  let ilp_bytes = vol ilp_prog in
  let ilp_label =
    match ilp_rewrites @ ilp_fused @ ilp_demoted with
    | [] -> "keep"
    | parts -> String.concat "+" parts
  in
  let ilp_choice =
    if !solver_failed && n_rounds = 0 then None
    else
      Some
        { plabel = ilp_label;
          program = ilp_prog;
          predicted_bytes = ilp_bytes;
          objective = ilp_obj;
          rewrites = ilp_rewrites;
          fused = ilp_fused;
          demoted = ilp_demoted;
        }
  in
  (* ---- final guard: the true objective decides ---- *)
  let provenance, chosen =
    match ilp_choice with
    | None -> ("ilp-fallback:greedy", greedy_choice)
    | Some ilp ->
        if !timed_out || !solver_failed then
          ("ilp-fallback:greedy", greedy_choice)
        else if ilp.predicted_bytes < greedy_bytes -. eps then ("ilp", ilp)
        else if ilp.predicted_bytes <= greedy_bytes +. eps then
          ("ilp-tie:greedy", greedy_choice)
        else ("ilp-fallback:greedy", greedy_choice)
  in
  (* ---- decision record with chosen-vs-rejected assignments ---- *)
  let alternatives =
    let config_alts =
      List.map
        (fun c -> (config_label c, c.base_bytes))
        (!last_space).configs
    in
    let named = [ ("greedy", greedy_bytes) ] in
    let ilp_alt =
      match ilp_choice with
      | Some ilp when ilp.plabel <> "keep" ->
          [ (ilp.plabel, ilp.predicted_bytes) ]
      | _ -> []
    in
    let seen = Hashtbl.create 8 in
    List.filter
      (fun (n, _) ->
        if Hashtbl.mem seen n then false
        else begin
          Hashtbl.add seen n ();
          true
        end)
      (named @ ilp_alt @ config_alts)
  in
  let decision =
    { Partition.iteration = 0;
      chosen = (if chosen == greedy_choice then "greedy" else chosen.plabel);
      candidates = alternatives;
      provenance;
    }
  in
  (match tracer with
  | None -> ()
  | Some tr ->
      Span.emit tr ~cat:"partition" ~name:"plan-decision"
        ~args:
          ([ ("provenance", Span.Str provenance);
             ("chosen", Span.Str decision.Partition.chosen);
             ("bytes:chosen", Span.Float chosen.predicted_bytes);
             ("bytes:greedy", Span.Float greedy_bytes);
             ("rounds", Span.Int n_rounds);
           ]
          @
          match !last_stats with
          | None -> []
          | Some st ->
              [ ("solver:explored", Span.Int st.Ilp.explored);
                ("solver:vars", Span.Int st.Ilp.vars);
              ])
        ~ts_us:(Span.now_us tr) ~dur_us:0.0 ());
  let report =
    if chosen == greedy_choice then
      { greedy_rep with
        Partition.decisions = greedy_rep.Partition.decisions @ [ decision ];
      }
    else
      Partition.finalize
        ~rewrites_applied:(chosen.rewrites @ chosen.fused @ chosen.demoted)
        ~decisions:[ decision ] chosen.program
  in
  { report;
    explain =
      { nodes = machine.M.nodes;
        provenance;
        chosen;
        greedy = greedy_choice;
        ilp = ilp_choice;
        space = !last_space;
        stats = !last_stats;
        rounds = n_rounds;
      };
  }

(* ------------------------------------------------------------------ *)
(* W-FUSION-MISSED lint                                                *)
(* ------------------------------------------------------------------ *)

(** Warn when the interference graph proves two adjacent multiloops
    fusible but the final program leaves them unfused with a strictly
    worse predicted volume — the selected plan (or the shared-memory
    pipeline) left traffic on the table.  Surfaces in [dmllc --lint]. *)
let fusion_missed_diags ?input_lens ?(machine = M.ec2_cluster) (e : exp) :
    Diag.t list =
  let vol p = volume ?input_lens ~machine p in
  let base = vol e in
  List.filter_map
    (fun ((s1, _), (s2, _)) ->
      match materialize_fusion ~s1 ~s2 e with
      | None -> None
      | Some fused ->
          let fused = reoptimize fused in
          let v = vol fused in
          if legal fused && v < base -. eps then
            Some
              (Diag.warning ~rule:"W-FUSION-MISSED"
                 "multiloops %s and %s are fusible but unfused: fusing would \
                  cut predicted traffic %s -> %s"
                 (Sym.name s1) (Sym.name s2) (Comm.fmt_bytes base)
                 (Comm.fmt_bytes v))
          else None)
    (List.filter (fun (a, b) -> fusible a b) (spine_pairs e))

(* ------------------------------------------------------------------ *)
(* Rendering ([dmllc --explain plan])                                  *)
(* ------------------------------------------------------------------ *)

let str_list_json (ss : string list) : string =
  "[" ^ String.concat "," (List.map (fun s -> "\"" ^ Comm.json_escape s ^ "\"") ss)
  ^ "]"

let choice_to_json (c : choice) : string =
  Printf.sprintf
    "{\"label\":\"%s\",\"predicted_bytes\":%.0f,\"objective\":%.0f,\"rewrites\":%s,\"fusions\":%s,\"demotions\":%s}"
    (Comm.json_escape c.plabel)
    c.predicted_bytes c.objective (str_list_json c.rewrites)
    (str_list_json c.fused) (str_list_json c.demoted)

let config_to_json (c : rewrite_config) : string =
  Printf.sprintf
    "{\"label\":\"%s\",\"rewrites\":%s,\"base_bytes\":%.0f,\"mem_peak_bytes\":%.0f,\"mem_penalty\":%.0f,\"fusions\":[%s],\"demotions\":[%s]}"
    (Comm.json_escape (config_label c))
    (str_list_json c.rewrites) c.base_bytes c.mem_peak_bytes c.mem_penalty
    (String.concat ","
       (List.map
          (fun (f : fusion_candidate) ->
            Printf.sprintf "{\"label\":\"%s\",\"delta_bytes\":%.0f}"
              (Comm.json_escape f.label) f.delta_bytes)
          c.fusions))
    (String.concat ","
       (List.map
          (fun (d : demotion_candidate) ->
            Printf.sprintf "{\"label\":\"%s\",\"delta_bytes\":%.0f}"
              (Comm.json_escape d.dlabel) d.ddelta_bytes)
          c.demotions))

let stats_to_json (st : Ilp.stats) : string =
  Printf.sprintf
    "{\"vars\":%d,\"constraints\":%d,\"explored\":%d,\"node_budget\":%d,\"timed_out\":%b,\"root_bound\":%.0f}"
    st.Ilp.vars st.Ilp.constraints st.Ilp.explored st.Ilp.node_budget
    st.Ilp.timed_out st.Ilp.root_bound

(** One application's complete [--explain plan --json] object (schema is
    golden-tested — downstream tooling relies on the field names). *)
let explain_to_json ~(app : string) (x : explain) : string =
  Printf.sprintf
    "{\"app\":\"%s\",\"nodes\":%d,\"provenance\":\"%s\",\"rounds\":%d,\"chosen\":%s,\"greedy\":%s,\"ilp\":%s,\"solver\":%s,\"space\":{\"truncated\":%b,\"configs\":[%s]}}"
    (Comm.json_escape app) x.nodes
    (Comm.json_escape x.provenance)
    x.rounds
    (choice_to_json x.chosen)
    (choice_to_json x.greedy)
    (match x.ilp with None -> "null" | Some c -> choice_to_json c)
    (match x.stats with None -> "null" | Some st -> stats_to_json st)
    x.space.truncated
    (String.concat "," (List.map config_to_json x.space.configs))

let pp_explain (fmt : Format.formatter) (x : explain) : unit =
  let pp = Format.fprintf in
  pp fmt "plan selection (%d nodes): %s@." x.nodes x.provenance;
  pp fmt "  chosen: %s  predicted %s@." x.chosen.plabel
    (Comm.fmt_bytes x.chosen.predicted_bytes);
  pp fmt "  greedy: %s (%s)  predicted %s@." x.greedy.plabel
    (String.concat "+"
       (match x.greedy.rewrites with [] -> [ "keep" ] | rs -> rs))
    (Comm.fmt_bytes x.greedy.predicted_bytes);
  (match x.ilp with
  | None -> pp fmt "  ilp: no solution@."
  | Some c ->
      pp fmt "  ilp: %s  predicted %s (objective %s, %d round%s)@." c.plabel
        (Comm.fmt_bytes c.predicted_bytes)
        (Comm.fmt_bytes c.objective) x.rounds
        (if x.rounds = 1 then "" else "s"));
  (match x.stats with
  | None -> ()
  | Some st ->
      pp fmt "  solver: %d vars, %d constraints, %d nodes explored%s@."
        st.Ilp.vars st.Ilp.constraints st.Ilp.explored
        (if st.Ilp.timed_out then " (node budget exhausted)" else ""));
  pp fmt "  space:%s %d configuration%s@."
    (if x.space.truncated then " (truncated)" else "")
    (List.length x.space.configs)
    (if List.length x.space.configs = 1 then "" else "s");
  List.iter
    (fun c ->
      pp fmt "    [%d] %s: %s%s@." c.cid (config_label c)
        (Comm.fmt_bytes c.base_bytes)
        (if c.mem_penalty > 0.0 then
           Printf.sprintf " (+%s mem penalty)" (Comm.fmt_bytes c.mem_penalty)
         else "");
      List.iter
        (fun (f : fusion_candidate) ->
          pp fmt "          %s: %+.0fB@." f.label f.delta_bytes)
        c.fusions;
      List.iter
        (fun (d : demotion_candidate) ->
          pp fmt "          %s: %+.0fB@." d.dlabel d.ddelta_bytes)
        c.demotions)
    x.space.configs
