(** Scalar simplification: constant folding, algebraic identities,
    tuple/struct projection folding, let inlining, and dead-let
    elimination.

    Simplification runs between the structural passes; the nested-pattern
    rules in particular leave behind identity loops and trivial lets that
    this pass cleans up (paper §3.2: "this extra identity loop is simply
    optimized away").

    Preservation contract (shared by every pass in this library): if the
    source program evaluates successfully, the transformed program
    evaluates to the same value.  Transformations may {e remove} failures
    (e.g. dropping a dead division) but never introduce them. *)

open Dmll_ir
open Exp

let fold_prim (p : Prim.t) (args : exp list) : exp option =
  let open Prim in
  match (p, args) with
  | Add, [ Const (Cint a); Const (Cint b) ] -> Some (int_ (a + b))
  | Sub, [ Const (Cint a); Const (Cint b) ] -> Some (int_ (a - b))
  | Mul, [ Const (Cint a); Const (Cint b) ] -> Some (int_ (a * b))
  | Div, [ Const (Cint a); Const (Cint b) ] when b <> 0 -> Some (int_ (a / b))
  | Mod, [ Const (Cint a); Const (Cint b) ] when b <> 0 -> Some (int_ (a mod b))
  | Neg, [ Const (Cint a) ] -> Some (int_ (-a))
  | Min, [ Const (Cint a); Const (Cint b) ] -> Some (int_ (Stdlib.min a b))
  | Max, [ Const (Cint a); Const (Cint b) ] -> Some (int_ (Stdlib.max a b))
  | Fadd, [ Const (Cfloat a); Const (Cfloat b) ] -> Some (float_ (a +. b))
  | Fsub, [ Const (Cfloat a); Const (Cfloat b) ] -> Some (float_ (a -. b))
  | Fmul, [ Const (Cfloat a); Const (Cfloat b) ] -> Some (float_ (a *. b))
  | Fdiv, [ Const (Cfloat a); Const (Cfloat b) ] -> Some (float_ (a /. b))
  | Fneg, [ Const (Cfloat a) ] -> Some (float_ (-.a))
  | I2f, [ Const (Cint a) ] -> Some (float_ (float_of_int a))
  | Eq, [ Const a; Const b ] -> Some (bool_ (const_equal a b))
  | Ne, [ Const a; Const b ] -> Some (bool_ (not (const_equal a b)))
  | Lt, [ Const (Cint a); Const (Cint b) ] -> Some (bool_ (a < b))
  | Le, [ Const (Cint a); Const (Cint b) ] -> Some (bool_ (a <= b))
  | Gt, [ Const (Cint a); Const (Cint b) ] -> Some (bool_ (a > b))
  | Ge, [ Const (Cint a); Const (Cint b) ] -> Some (bool_ (a >= b))
  (* float compares fold the way the interpreter evaluates them, with
     [compare] (NaN equals itself and sorts below every float) *)
  | Lt, [ Const (Cfloat a); Const (Cfloat b) ] -> Some (bool_ (Float.compare a b < 0))
  | Le, [ Const (Cfloat a); Const (Cfloat b) ] -> Some (bool_ (Float.compare a b <= 0))
  | Gt, [ Const (Cfloat a); Const (Cfloat b) ] -> Some (bool_ (Float.compare a b > 0))
  | Ge, [ Const (Cfloat a); Const (Cfloat b) ] -> Some (bool_ (Float.compare a b >= 0))
  | And, [ Const (Cbool a); Const (Cbool b) ] -> Some (bool_ (a && b))
  | Or, [ Const (Cbool a); Const (Cbool b) ] -> Some (bool_ (a || b))
  | Not, [ Const (Cbool a) ] -> Some (bool_ (not a))
  | Strcat, [ Const (Cstr a); Const (Cstr b) ] -> Some (str_ (a ^ b))
  | Strlen, [ Const (Cstr a) ] -> Some (int_ (String.length a))
  (* algebraic identities that hold without speculation *)
  | Add, [ e; Const (Cint 0) ] | Add, [ Const (Cint 0); e ] -> Some e
  | Sub, [ e; Const (Cint 0) ] -> Some e
  | Mul, [ e; Const (Cint 1) ] | Mul, [ Const (Cint 1); e ] -> Some e
  | Fadd, [ e; Const (Cfloat 0.0) ] | Fadd, [ Const (Cfloat 0.0); e ] -> Some e
  | Fmul, [ e; Const (Cfloat 1.0) ] | Fmul, [ Const (Cfloat 1.0); e ] -> Some e
  | And, [ e; Const (Cbool true) ] | And, [ Const (Cbool true); e ] -> Some e
  | Or, [ e; Const (Cbool false) ] | Or, [ Const (Cbool false); e ] -> Some e
  (* Note: [e * 0 -> 0] is NOT performed: it would drop a potential failure
     in [e] only when [e] is impure; and for floats it is wrong on NaN/inf.
     [e && false -> false] is likewise skipped to preserve failure order. *)
  | _ -> None

(** Is [e] cheap enough to duplicate freely at each use site? *)
let trivial = function
  | Const _ | Var _ | Input _ -> true
  | Len (Var _) | Len (Input _) -> true
  | Proj (Var _, _) -> true
  | _ -> false

(** Does [s] occur inside a loop's per-iteration code (generator parts)?
    Inlining such an occurrence would move a once-evaluated binding into a
    loop body — the opposite of code motion — so the inliner refuses.
    Occurrences in a loop's [size] are evaluated once and are fine. *)
let rec occurs_per_iteration s e =
  match e with
  | Loop { size; gens; _ } ->
      occurs_per_iteration s size
      || List.exists
           (fun g ->
             let parts =
               List.filter_map Fun.id [ gen_cond g; Some (gen_value g); gen_key g ]
             in
             let parts =
               match g with
               | Reduce { rfun; init; _ } | BucketReduce { rfun; init; _ } ->
                   rfun :: init :: parts
               | _ -> parts
             in
             List.exists (occurs s) parts)
           gens
  | _ -> fold_sub (fun acc sub -> acc || occurs_per_iteration s sub) false e

let rules : Rewrite.rule list =
  [ { rname = "constant-fold";
      apply = (function Prim (p, args) -> fold_prim p args | _ -> None);
    };
    { rname = "if-fold";
      apply =
        (function
        | If (Const (Cbool true), t, _) -> Some t
        | If (Const (Cbool false), _, f) -> Some f
        | If (_, t, f) when Rewrite.pure t && alpha_equal t f ->
            (* both branches identical and pure: condition still evaluated
               first via a let to preserve failures in it *)
            None
        | _ -> None);
    };
    { rname = "proj-fold";
      apply =
        (function
        | Proj (Tuple es, i) when i < List.length es ->
            let taken = List.nth es i in
            if List.for_all Rewrite.pure es then Some taken else None
        | _ -> None);
    };
    { rname = "field-fold";
      apply =
        (function
        | Field (Record (_, fs), n) when List.for_all (fun (_, v) -> Rewrite.pure v) fs ->
            List.assoc_opt n fs
        | _ -> None);
    };
    { rname = "len-of-collect";
      apply =
        (function
        (* Only an unconditional Collect has a statically known length. *)
        | Len (Loop { size; gens = [ Collect { cond = None; value } ]; _ })
          when Rewrite.pure value && Rewrite.total value ->
            Some size
        | _ -> None);
    };
    { rname = "let-inline";
      apply =
        (function
        | Let (s, bound, body) when trivial bound -> Some (subst1 s bound body)
        | Let (s, bound, body)
          when Rewrite.pure bound && count_occ s body = 1 && loop_free bound
               && not (occurs_per_iteration s body) ->
            (* single-use pure scalar code, not used per-iteration of any
               loop: inline (evaluation count can only decrease, so
               failures are only removed) *)
            Some (subst1 s bound body)
        | _ -> None);
    };
    { rname = "dead-let";
      apply =
        (function
        | Let (s, bound, body) when Rewrite.pure bound && count_occ s body = 0 ->
            Some body
        | _ -> None);
    };
  ]

(** Run the simplifier to fixpoint, recording rule firings in [trace]. *)
let simplify ?(trace = Rewrite.new_trace ()) e = Rewrite.fixpoint rules trace e
