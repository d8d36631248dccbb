(** Random well-typed DMLL program generation for property-based tests.

    The generator produces closed, well-typed expressions that always
    evaluate without runtime errors (indices are clamped, divisions
    guarded, reductions restricted to associative-commutative operators so
    that chunked parallel evaluation is equivalent to sequential
    evaluation up to float rounding).  Semantic-preservation properties
    for every optimization pass are stated over these programs. *)

open Dmll_ir
open Exp

type env = (Sym.t * Types.ty) list

let gen_return = QCheck.Gen.return
let ( let* ) = QCheck.Gen.( let* )

(* Variables of type [ty] available in [env]. *)
let vars_of env ty =
  List.filter_map (fun (s, t) -> if Types.equal t ty then Some (Var s) else None) env

(* A total read: guarded against empty arrays (a conditional Collect can
   produce zero elements) and with the index clamped into bounds. *)
let safe_read ~default arr idx =
  let open Builder in
  if_ (Len arr =! int_ 0) default (Read (arr, imax_ (int_ 0) idx %! Len arr))

let int_leaf env : exp QCheck.Gen.t =
  let open QCheck.Gen in
  let consts = map (fun i -> int_ i) (int_range (-20) 20) in
  match vars_of env Types.Int with
  | [] -> consts
  | vs -> oneof [ consts; oneofl vs ]

(* Float constants, now and then one whose bits the backends must keep:
   NaN, negative zero, infinity. *)
let float_leaf env : exp QCheck.Gen.t =
  let open QCheck.Gen in
  let consts =
    frequency
      [ (12, map (fun f -> float_ (Float.of_int f /. 4.0)) (int_range (-40) 40));
        (1, oneofl [ float_ Float.nan; float_ (-0.0); float_ Float.infinity ]);
      ]
  in
  match vars_of env Types.Float with
  | [] -> consts
  | vs -> oneof [ consts; oneofl vs ]

let bool_leaf env : exp QCheck.Gen.t =
  let open QCheck.Gen in
  let consts = map (fun b -> bool_ b) bool in
  match vars_of env Types.Bool with
  | [] -> consts
  | vs -> oneof [ consts; oneofl vs ]

let float_binops = Prim.[ Fadd; Fsub; Fmul; Fmin; Fmax; Pow ]

(* [gen_exp env ty fuel] generates an expression of type [ty]. *)
let rec gen_exp (env : env) (ty : Types.ty) (fuel : int) : exp QCheck.Gen.t =
  let open QCheck.Gen in
  if fuel <= 0 then gen_leaf env ty
  else
    match ty with
    | Types.Int ->
        let arr_reads =
          match vars_of env (Types.Arr Types.Int) with
          | [] -> []
          | vs ->
              [ (let* a = oneofl vs in
                 let* i = gen_exp env Types.Int (fuel / 2) in
                 gen_return (safe_read ~default:(Exp.int_ 0) a i));
              ]
        in
        oneof
          ([ gen_leaf env ty;
             (let* p = oneofl Prim.[ Add; Sub; Mul; Min; Max ] in
              let* a = gen_exp env Types.Int (fuel / 2) in
              let* b = gen_exp env Types.Int (fuel / 2) in
              gen_return (Prim (p, [ a; b ])));
             gen_if env ty fuel;
             gen_let env ty fuel;
             gen_isum env fuel;
             gen_argmin env fuel;
           ]
          @ arr_reads)
    | Types.Float ->
        let arr_reads =
          match vars_of env (Types.Arr Types.Float) with
          | [] -> []
          | vs ->
              [ (let* a = oneofl vs in
                 let* i = gen_exp env Types.Int (fuel / 2) in
                 gen_return (safe_read ~default:(Exp.float_ 0.0) a i));
              ]
        in
        oneof
          ([ gen_leaf env ty;
             (let* p = oneofl float_binops in
              let* a = gen_exp env Types.Float (fuel / 2) in
              let* b = gen_exp env Types.Float (fuel / 2) in
              gen_return (Prim (p, [ a; b ])));
             gen_if env ty fuel;
             gen_let env ty fuel;
             gen_fsum env fuel;
             gen_shared env fuel;
             gen_affine env fuel;
           ]
          @ arr_reads)
    | Types.Bool ->
        oneof
          [ gen_leaf env ty;
            (let* p = oneofl Prim.[ Eq; Ne; Lt; Le; Gt; Ge ] in
             let* a = gen_exp env Types.Int (fuel / 2) in
             let* b = gen_exp env Types.Int (fuel / 2) in
             gen_return (Prim (p, [ a; b ])));
            (let* p = oneofl Prim.[ Eq; Ne; Lt; Le; Gt; Ge ] in
             let* a = gen_exp env Types.Float (fuel / 2) in
             let* b = gen_exp env Types.Float (fuel / 2) in
             gen_return (Prim (p, [ a; b ])));
            (let* p = oneofl Prim.[ And; Or ] in
             let* a = gen_exp env Types.Bool (fuel / 2) in
             let* b = gen_exp env Types.Bool (fuel / 2) in
             gen_return (Prim (p, [ a; b ])));
          ]
    | Types.Arr Types.Float -> gen_collect env Types.Float fuel
    | Types.Arr Types.Int -> gen_collect env Types.Int fuel
    | _ -> gen_leaf env ty

and gen_leaf env ty : exp QCheck.Gen.t =
  let open QCheck.Gen in
  match ty with
  | Types.Int -> int_leaf env
  | Types.Float -> float_leaf env
  | Types.Bool -> bool_leaf env
  | Types.Arr elt -> (
      match vars_of env ty with
      | [] ->
          (* a small constant collect *)
          let* n = int_range 1 5 in
          let* body = gen_leaf env elt in
          gen_return (Builder.collect ~size:(int_ n) (fun _ -> body))
      | vs -> oneofl vs)
  | _ -> QCheck.Gen.return unit_

and gen_if env ty fuel =
  let* c = gen_exp env Types.Bool (fuel / 3) in
  let* t = gen_exp env ty (fuel / 2) in
  let* e = gen_exp env ty (fuel / 2) in
  gen_return (If (c, t, e))

and gen_let env ty fuel =
  let open QCheck.Gen in
  let* bty = oneofl [ Types.Int; Types.Float; Types.Arr Types.Float ] in
  let* bound = gen_exp env bty (fuel / 2) in
  let s = Sym.fresh ~name:"g" bty in
  let* body = gen_exp ((s, bty) :: env) ty (fuel / 2) in
  gen_return (Let (s, bound, body))

and gen_collect env elt fuel =
  let open QCheck.Gen in
  let* n = int_range 1 8 in
  let idx = Sym.fresh ~name:"i" Types.Int in
  let env' = (idx, Types.Int) :: env in
  let* value = gen_exp env' elt (fuel / 2) in
  let* with_cond = bool in
  let* cond =
    if with_cond then
      let* c = gen_exp env' Types.Bool (fuel / 3) in
      gen_return (Some c)
    else gen_return None
  in
  gen_return (Loop { size = int_ n; idx; gens = [ Collect { cond; value } ] })

and gen_fsum env fuel =
  let* n = QCheck.Gen.int_range 1 8 in
  (* any associative-commutative float reduction with its identity: chunked
     parallel evaluation stays equivalent to sequential evaluation *)
  let* op, init =
    QCheck.Gen.oneofl
      [ (Prim.Fadd, float_ 0.0);
        (Prim.Fmin, float_ infinity);
        (Prim.Fmax, float_ neg_infinity);
      ]
  in
  let idx = Sym.fresh ~name:"i" Types.Int in
  let env' = (idx, Types.Int) :: env in
  let* value = gen_exp env' Types.Float (fuel / 2) in
  let a = Sym.fresh ~name:"a" Types.Float and b = Sym.fresh ~name:"b" Types.Float in
  gen_return
    (Loop
       { size = int_ n;
         idx;
         gens =
           [ Reduce
               { cond = None; value; a; b; rfun = Prim (op, [ Var a; Var b ]); init };
           ];
       })

(* A Let-bound float read twice: [let v = e in v op v]. *)
and gen_shared env fuel =
  let open QCheck.Gen in
  let* bound = gen_exp env Types.Float (fuel / 2) in
  let* p = oneofl float_binops in
  let s = Sym.fresh ~name:"v" Types.Float in
  gen_return (Let (s, bound, Prim (p, [ Var s; Var s ])))

(* Affine reads of a Let-bound float array, the kmeans distance shape:
   [sum_{i<n} sum_{j<m} (let d = xs(((i + o) * m) + j) - c in d * d)]
   over an array of [(n + o) * m] elements ([o = 0] gives [i*m + j]). *)
and gen_affine env fuel =
  let open QCheck.Gen in
  let* n = int_range 1 4 in
  let* m = int_range 1 4 in
  let* o = int_range 0 2 in
  let k = Sym.fresh ~name:"k" Types.Int in
  let* elt = gen_exp ((k, Types.Int) :: env) Types.Float (fuel / 3) in
  let* c = float_leaf env in
  let xs = Sym.fresh ~name:"xs" (Types.Arr Types.Float) in
  let fill =
    Loop
      { size = int_ ((n + o) * m); idx = k; gens = [ Collect { cond = None; value = elt } ] }
  in
  let open Builder in
  let row i = if o = 0 then i *! int_ m else (i +! int_ o) *! int_ m in
  gen_return
    (Let
       ( xs,
         fill,
         fsum ~size:(int_ n) (fun i ->
             fsum ~size:(int_ m) (fun j ->
                 bind ~ty:Types.Float (Read (Var xs, row i +! j) -. c) (fun d -> d *. d))) ))

(* The argmin shape with a float Reduce nested in its (value, index)
   tuple: the index of the least [sum_j f(i, j)] over [i < n]. *)
and gen_argmin env fuel =
  let open QCheck.Gen in
  let* n = int_range 1 6 in
  let i = Sym.fresh ~name:"i" Types.Int in
  let* value = gen_fsum ((i, Types.Int) :: env) (fuel / 2) in
  gen_return (Builder.min_index ~size:(int_ n) (fun ix -> subst1 i ix value))

and gen_isum env fuel =
  let* n = QCheck.Gen.int_range 1 8 in
  let idx = Sym.fresh ~name:"i" Types.Int in
  let env' = (idx, Types.Int) :: env in
  let* value = gen_exp env' Types.Int (fuel / 2) in
  let a = Sym.fresh ~name:"a" Types.Int and b = Sym.fresh ~name:"b" Types.Int in
  gen_return
    (Loop
       { size = int_ n;
         idx;
         gens =
           [ Reduce
               { cond = None;
                 value;
                 a;
                 b;
                 rfun = Prim (Prim.Add, [ Var a; Var b ]);
                 init = int_ 0;
               };
           ];
       })

(** A closed program of scalar or array type, with nested loops. *)
let program : exp QCheck.Gen.t =
  let open QCheck.Gen in
  let* ty =
    oneofl [ Types.Int; Types.Float; Types.Arr Types.Float; Types.Arr Types.Int ]
  in
  let* fuel = int_range 4 24 in
  gen_exp [] ty fuel

(** A closed program together with a bucket-reduce at the top, exercising
    the grouping generators. *)
let bucket_program : exp QCheck.Gen.t =
  let open QCheck.Gen in
  let* n = int_range 1 16 in
  let* k = int_range 1 4 in
  let idx = Sym.fresh ~name:"i" Types.Int in
  let* value = gen_exp [ (idx, Types.Int) ] Types.Float 6 in
  let a = Sym.fresh ~name:"a" Types.Float and b = Sym.fresh ~name:"b" Types.Float in
  let open Builder in
  gen_return
    (Loop
       { size = int_ n;
         idx;
         gens =
           [ BucketReduce
               { cond = None;
                 key = Var idx %! int_ k;
                 value;
                 a;
                 b;
                 rfun = Var a +. Var b;
                 init = float_ 0.0;
               };
           ];
       })

let arbitrary_program =
  QCheck.make ~print:(fun e -> Pp.to_string e) program

let arbitrary_bucket_program =
  QCheck.make ~print:(fun e -> Pp.to_string e) bucket_program

(** A closed program that owns a partitioned input "xs": the wrapper loop
    materializes [2 * xs] (an Interval sweep over the partitioned input,
    hence a distributed loop under the cluster executors), and the
    generated body may read the bound array.  Used by the recovery
    property tests and the chaos-soak harness so that every program
    exercises partitioned data, fault injection, and churn. *)
let partitioned_program : exp QCheck.Gen.t =
  let* ty =
    QCheck.Gen.oneofl
      [ Types.Int; Types.Float; Types.Arr Types.Float; Types.Arr Types.Int ]
  in
  let* fuel = QCheck.Gen.int_range 4 20 in
  let xs = Sym.fresh ~name:"soakxs" (Types.Arr Types.Float) in
  let* body = gen_exp [ (xs, Types.Arr Types.Float) ] ty fuel in
  let input = Input ("xs", Types.Arr Types.Float, Partitioned) in
  let i = Sym.fresh ~name:"i" Types.Int in
  let materialize =
    Loop
      { size = Len input;
        idx = i;
        gens =
          [ Collect
              { cond = None;
                value = Builder.( *. ) (Read (input, Var i)) (float_ 2.0);
              }
          ];
      }
  in
  gen_return (Let (xs, materialize, body))

let arbitrary_partitioned_program =
  QCheck.make ~print:(fun e -> Pp.to_string e) partitioned_program
