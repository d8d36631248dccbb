(** A dependency-free 0-1 integer linear program solver.

    The plan-space analysis ({!Plan}) encodes its joint
    fusion/rewrite/layout decision as a small binary program — tens of
    variables, a handful of structured constraints — so a general LP
    library would be overkill and an external solver a forbidden
    dependency.  This module solves exactly that class:

    {v minimize    sum_i cost_i * x_i          x_i in {0,1}
       subject to  Exactly_one  [x_a; x_b; ...]
                   At_most      ([x_a; ...], k)
                   Implies      (x_a, x_b)          (x_a = 1 -> x_b = 1) v}

    by depth-first branch-and-bound with:

    - {e unit propagation} over the three constraint forms after every
      branch (an [Exactly_one] group with a chosen member zeroes the
      rest; a saturated [At_most] zeroes its remaining free members; an
      implication chases both directions);
    - {e LP-style bounding}: at every node the incumbent is compared to
      the optimum of the rational relaxation of the remaining
      subproblem — free variables take their fractional optimum (1 for
      negative cost, 0 otherwise) and each unfulfilled [Exactly_one]
      group pays its cheapest free member when all its members cost
      money.  This is exactly the LP optimum of the relaxation with
      implications and [At_most] rows dropped, so it never exceeds the
      true integer optimum and the prune is safe;
    - {e deterministic tie-breaking}: variables are branched in index
      order, the locally-cheaper value is explored first, and a new
      incumbent must be {e strictly} better, so the solver returns the
      same assignment for the same problem on every run;
    - a {e node budget} instead of a wall clock: the analysis library is
      deterministic and unix-free, so "timeout" means "explored more
      than [node_budget] search nodes".  The caller (the plan selector)
      falls back to the greedy plan when the budget trips. *)

type var = int

type constr =
  | Exactly_one of var list  (** exactly one member is 1 *)
  | At_most of var list * int  (** at most [k] members are 1 *)
  | Implies of var * var  (** first = 1 forces second = 1 *)

type problem = {
  nvars : int;
  cost : float array;  (** [cost.(i)] multiplies [x_i]; may be negative *)
  constrs : constr list;
}

type stats = {
  vars : int;
  constraints : int;
  explored : int;  (** search nodes visited *)
  node_budget : int;
  timed_out : bool;  (** budget exhausted before the search closed *)
  root_bound : float;  (** rational-relaxation bound at the root *)
}

type solution = { assignment : bool array; objective : float; stats : stats }

let default_node_budget = 100_000

(* ------------------------------------------------------------------ *)
(* Partial assignments                                                 *)
(* ------------------------------------------------------------------ *)

(* -1 = free, 0 / 1 = fixed. *)
type state = int array

exception Infeasible

let set (st : state) (v : var) (value : int) : bool =
  (* returns true when the state changed; raises on conflict *)
  match st.(v) with
  | -1 ->
      st.(v) <- value;
      true
  | old when old = value -> false
  | _ -> raise Infeasible

(* One propagation sweep; returns true when anything changed. *)
let propagate_once (p : problem) (st : state) : bool =
  let changed = ref false in
  let fix v value = if set st v value then changed := true in
  List.iter
    (fun c ->
      match c with
      | Implies (a, b) ->
          if st.(a) = 1 then fix b 1;
          if st.(b) = 0 then fix a 0
      | Exactly_one vs ->
          let ones = List.filter (fun v -> st.(v) = 1) vs in
          let free = List.filter (fun v -> st.(v) = -1) vs in
          (match (ones, free) with
          | _ :: _ :: _, _ -> raise Infeasible
          | [ _ ], free -> List.iter (fun v -> fix v 0) free
          | [], [] -> raise Infeasible
          | [], [ only ] -> fix only 1
          | [], _ -> ())
      | At_most (vs, k) ->
          let ones = List.length (List.filter (fun v -> st.(v) = 1) vs) in
          if ones > k then raise Infeasible
          else if ones = k then
            List.iter (fun v -> if st.(v) = -1 then fix v 0) vs)
    p.constrs;
  !changed

let propagate (p : problem) (st : state) : unit =
  while propagate_once p st do
    ()
  done

(* ------------------------------------------------------------------ *)
(* Bounding                                                            *)
(* ------------------------------------------------------------------ *)

(** Optimum of the rational relaxation of the subproblem under partial
    assignment [st] (implications and [At_most] rows dropped — both can
    only raise the integer optimum, so this is a valid lower bound):
    fixed variables pay their cost, free variables take their fractional
    optimum, and an unfulfilled [Exactly_one] group whose free members
    all cost money pays the cheapest of them. *)
let relaxation_bound (p : problem) (st : state) : float =
  let base = ref 0.0 in
  for i = 0 to p.nvars - 1 do
    if st.(i) = 1 then base := !base +. p.cost.(i)
    else if st.(i) = -1 && p.cost.(i) < 0.0 then base := !base +. p.cost.(i)
  done;
  List.iter
    (fun c ->
      match c with
      | Exactly_one vs when not (List.exists (fun v -> st.(v) = 1) vs) ->
          let free = List.filter (fun v -> st.(v) = -1) vs in
          let cheapest =
            List.fold_left
              (fun acc v -> min acc p.cost.(v))
              infinity free
          in
          (* all-negative / mixed groups are already covered by the
             fractional term above; all-positive groups must pay *)
          if cheapest > 0.0 && cheapest < infinity then
            base := !base +. cheapest
      | _ -> ())
    p.constrs;
  !base

(* ------------------------------------------------------------------ *)
(* Search                                                              *)
(* ------------------------------------------------------------------ *)

let objective_of (p : problem) (st : state) : float =
  let o = ref 0.0 in
  for i = 0 to p.nvars - 1 do
    if st.(i) = 1 then o := !o +. p.cost.(i)
  done;
  !o

(** Is a {e complete} assignment consistent with every constraint?  Used
    as a final safety net on the incumbent the search returns. *)
let feasible (p : problem) (assignment : bool array) : bool =
  List.for_all
    (fun c ->
      match c with
      | Implies (a, b) -> (not assignment.(a)) || assignment.(b)
      | Exactly_one vs ->
          List.length (List.filter (fun v -> assignment.(v)) vs) = 1
      | At_most (vs, k) ->
          List.length (List.filter (fun v -> assignment.(v)) vs) <= k)
    p.constrs

let solve ?(node_budget = default_node_budget) (p : problem) : solution option =
  if Array.length p.cost <> p.nvars then
    invalid_arg "Ilp.solve: cost array length <> nvars";
  List.iter
    (fun c ->
      let check v =
        if v < 0 || v >= p.nvars then
          invalid_arg "Ilp.solve: constraint references unknown variable"
      in
      match c with
      | Exactly_one vs | At_most (vs, _) -> List.iter check vs
      | Implies (a, b) ->
          check a;
          check b)
    p.constrs;
  let explored = ref 0 in
  let timed_out = ref false in
  let best : (bool array * float) option ref = ref None in
  let root = Array.make p.nvars (-1) in
  let root_bound =
    try
      propagate p root;
      relaxation_bound p root
    with Infeasible -> infinity
  in
  let eps = 1e-9 in
  let rec dfs (st : state) : unit =
    if !timed_out then ()
    else begin
      incr explored;
      if !explored > node_budget then timed_out := true
      else begin
        let bound = relaxation_bound p st in
        let prune =
          match !best with
          | Some (_, inc) -> bound >= inc -. eps
          | None -> false
        in
        if not prune then begin
          (* first free variable, in index order: deterministic *)
          let rec first_free i =
            if i >= p.nvars then None
            else if st.(i) = -1 then Some i
            else first_free (i + 1)
          in
          match first_free 0 with
          | None ->
              let obj = objective_of p st in
              let better =
                match !best with
                | None -> true
                | Some (_, inc) -> obj < inc -. eps
              in
              if better then
                best := Some (Array.map (fun v -> v = 1) st, obj)
          | Some v ->
              (* locally-cheaper value first; ties take 0 first *)
              let order = if p.cost.(v) < 0.0 then [ 1; 0 ] else [ 0; 1 ] in
              List.iter
                (fun value ->
                  if not !timed_out then begin
                    let st' = Array.copy st in
                    match
                      ignore (set st' v value);
                      propagate p st';
                      `Ok
                    with
                    | `Ok -> dfs st'
                    | exception Infeasible -> ()
                  end)
                order
        end
      end
    end
  in
  (if root_bound < infinity then
     try dfs root with Infeasible -> ());
  let stats =
    { vars = p.nvars;
      constraints = List.length p.constrs;
      explored = !explored;
      node_budget;
      timed_out = !timed_out;
      root_bound;
    }
  in
  match !best with
  | Some (assignment, objective) when feasible p assignment ->
      Some { assignment; objective; stats }
  | _ -> None

(** The solution's solver provenance, for decision records and
    [--explain plan]: budget-clean optima are ["ilp"], budget-tripped
    incumbents ["ilp-timeout"]. *)
let provenance (s : solution) : string =
  if s.stats.timed_out then "ilp-timeout" else "ilp"
