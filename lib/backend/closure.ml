(** The CPU backend: compiles optimized DMLL IR to OCaml closures over
    unboxed storage.

    This is the reproduction's stand-in for Delite's C++ code generator
    (DESIGN.md §2).  The properties Table 2 depends on are preserved:

    - a fused multiloop compiles to a {e single} traversal;
    - [Float]/[Int] arrays use unboxed [float array]/[int array] storage
      (the runtime face of AoS→SoA);
    - floats never cross a closure return.  A float expression compiles,
      destination-passing style, to a [frame -> unit] step that writes its
      result into a float register of the frame ([fr.fs.(d)]): a
      [Let]-bound float writes its symbol's slot, every other node a
      temporary allocated at compile time, and constants are preloaded
      into registers of their own.  The consumer of a float (a binop,
      compare, store, reduce, collect) reads the register;
    - three operand kinds are read {e inline} by the node that consumes
      them, with no call of their own: float registers, constants, and a
      [Read] of an obj-slot/input array at an affine subscript
      [((v + o) * c) + w] (which covers [i], [i*c + j] and the
      [(ci + lo)*c + j] of a chunked loop);
    - float ops are applied through one inline op table, and reductions
      keep their accumulator in an unboxed local (or a one-cell float
      array when it must outlive a step);
    - argmin/argmax reductions over (value, index) tuples run on unboxed
      accumulators;
    - vector (elementwise-add) reductions accumulate {e in place}, fusing
      the value collect into the accumulation loop — no per-element
      temporaries, matching the paper's generated kernels;
    - bucket generators that share a key and condition (the output of
      horizontal fusion / Conditional Reduce / GroupBy-Reduce) share one
      hash probe per iteration through a {e slot registry}.

    The remaining gap to hand-written OCaml is one indirect call per
    residual float node that is not an inline operand, plus the boxed
    [V.t] values of the generic paths (tuples, bucket keys), reported in
    EXPERIMENTS.md.  Int and bool expressions still compile to
    [frame -> int]/[frame -> bool] closures, which return unboxed.

    Concurrency: compiled objects carry private mutable generator state —
    compile per domain (as [Dmll_runtime.Evalenv] does), never share one
    compiled object across domains. *)

open Dmll_ir
module V = Dmll_interp.Value

exception Compile_error of string

let fail fmt = Fmt.kstr (fun s -> raise (Compile_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Frames and slots                                                    *)
(* ------------------------------------------------------------------ *)

type frame = { fs : float array; is : int array; os : V.t array }

type kind = Kf | Ki | Ko

let kind_of_ty = function
  | Types.Float -> Kf
  | Types.Int | Types.Bool -> Ki
  | _ -> Ko

type ctx = {
  slots : (kind * int) Sym.Tbl.t;
  inputs : (string, int) Hashtbl.t;  (** input name -> obj slot *)
  fconsts : (int64, int) Hashtbl.t;  (** float constant bits -> register *)
  mutable izero : int;  (** an int slot never written (reads 0), or -1 *)
  mutable nf : int;
  mutable ni : int;
  mutable no : int;
}

let new_ctx () =
  { slots = Sym.Tbl.create 64; inputs = Hashtbl.create 8; fconsts = Hashtbl.create 8;
    izero = -1; nf = 0; ni = 0; no = 0 }

(* A float temporary: a register of its own, written by one compiled node. *)
let fresh_freg ctx =
  ctx.nf <- ctx.nf + 1;
  ctx.nf - 1

(* The register holding constant [f], preloaded by [make_frame]; keyed by
   bits so that [-0.0] and NaN payloads keep their own registers. *)
let const_freg ctx f =
  let bits = Int64.bits_of_float f in
  match Hashtbl.find_opt ctx.fconsts bits with
  | Some k -> k
  | None ->
      let k = fresh_freg ctx in
      Hashtbl.add ctx.fconsts bits k;
      k

let zero_ireg ctx =
  if ctx.izero < 0 then begin
    ctx.ni <- ctx.ni + 1;
    ctx.izero <- ctx.ni - 1
  end;
  ctx.izero

let alloc_slot ctx (s : Sym.t) : kind * int =
  match Sym.Tbl.find_opt ctx.slots s with
  | Some ks -> ks
  | None ->
      let k = kind_of_ty (Sym.ty s) in
      let idx =
        match k with
        | Kf -> fresh_freg ctx
        | Ki ->
            ctx.ni <- ctx.ni + 1;
            ctx.ni - 1
        | Ko ->
            ctx.no <- ctx.no + 1;
            ctx.no - 1
      in
      Sym.Tbl.add ctx.slots s (k, idx);
      (k, idx)

let input_slot ctx name =
  match Hashtbl.find_opt ctx.inputs name with
  | Some i -> i
  | None ->
      ctx.no <- ctx.no + 1;
      Hashtbl.add ctx.inputs name (ctx.no - 1);
      ctx.no - 1

let slot ctx s =
  match Sym.Tbl.find_opt ctx.slots s with
  | Some ks -> ks
  | None -> alloc_slot ctx s

(* Static type of a subexpression, from declared symbol types. *)
let tyof (e : Exp.exp) : Types.ty =
  Typecheck.infer
    (Sym.Set.fold
       (fun s acc -> Sym.Map.add s (Sym.ty s) acc)
       (Exp.free_vars e) Sym.Map.empty)
    e

(* ------------------------------------------------------------------ *)
(* Growable buffers                                                    *)
(* ------------------------------------------------------------------ *)

module Fbuf = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 16 0.0; n = 0 }

  let grow t =
    let a' = Array.make (2 * t.n) 0.0 in
    Array.blit t.a 0 a' 0 t.n;
    t.a <- a'

  (* inlined so that [x] reaches the array unboxed *)
  let[@inline] push t x =
    if t.n = Array.length t.a then grow t;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let contents t = Array.sub t.a 0 t.n
end

module Ibuf = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 16 0; n = 0 }

  let push t x =
    if t.n = Array.length t.a then begin
      let a' = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 a' 0 t.n;
      t.a <- a'
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let contents t = Array.sub t.a 0 t.n
end

module Obuf = struct
  type 'a t = { mutable a : 'a array; mutable n : int; dummy : 'a }

  let create dummy = { a = Array.make 16 dummy; n = 0; dummy }

  let push t x =
    if t.n = Array.length t.a then begin
      let a' = Array.make (2 * t.n) t.dummy in
      Array.blit t.a 0 a' 0 t.n;
      t.a <- a'
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let contents t = Array.sub t.a 0 t.n
end

module Vtbl = Hashtbl.Make (struct
  type t = V.t

  let equal = V.equal
  let hash = Hashtbl.hash
end)

(* ------------------------------------------------------------------ *)
(* Bucket slot registries                                              *)
(* ------------------------------------------------------------------ *)

(* One registry per (condition, key) class of a multiloop's bucket
   generators: it evaluates the condition and key once per iteration and
   assigns slots in first-seen order; all generators of the class share
   the probe and the key array. *)
type registry = {
  rkey : frame -> V.t;
  rcond : (frame -> bool) option;
  kidx : int;  (** the loop index slot, for per-iteration memoization *)
  mutable rtbl : int Vtbl.t;
  mutable rkeys : V.t Obuf.t;
  mutable cur_iter : int;
  mutable cur_slot : int;  (** -1 = condition false this iteration *)
}

let new_registry ~kidx ~rkey ~rcond =
  { rkey; rcond; kidx; rtbl = Vtbl.create 64; rkeys = Obuf.create V.Vunit;
    cur_iter = -1; cur_slot = -1 }

let registry_reset r =
  r.rtbl <- Vtbl.create 64;
  r.rkeys <- Obuf.create V.Vunit;
  r.cur_iter <- -1;
  r.cur_slot <- -1

(* Slot of the current iteration's key, or -1 when the condition is
   false.  Memoized on the loop index so sibling generators share it. *)
let registry_slot (r : registry) (fr : frame) : int =
  let i = fr.is.(r.kidx) in
  if r.cur_iter <> i then begin
    r.cur_iter <- i;
    r.cur_slot <-
      (match r.rcond with
      | Some c when not (c fr) -> -1
      | _ -> (
          let k = r.rkey fr in
          match Vtbl.find_opt r.rtbl k with
          | Some s -> s
          | None ->
              let s = r.rkeys.Obuf.n in
              Vtbl.add r.rtbl k s;
              Obuf.push r.rkeys k;
              s))
  end;
  r.cur_slot

(* ------------------------------------------------------------------ *)
(* Float registers and inline operands                                 *)
(* ------------------------------------------------------------------ *)

open Exp

let nop (_ : frame) = ()

(* Run [steps] in order. *)
let seq_steps = function
  | [] -> nop
  | [ s ] -> s
  | steps ->
      let a = Array.of_list steps in
      fun fr ->
        for i = 0 to Array.length a - 1 do
          a.(i) fr
        done

(* Run the operand preparations [pres] in order, then [core]. *)
let with_pre (pres : (frame -> unit) option list) (core : frame -> 'a) : frame -> 'a =
  match List.filter_map Fun.id pres with
  | [] -> core
  | [ p ] ->
      fun fr ->
        p fr;
        core fr
  | [ p; q ] ->
      fun fr ->
        p fr;
        q fr;
        core fr
  | ps -> List.fold_right (fun p k fr -> p fr; k fr) ps core

(* The inline op tables: one match on the IR op, inlined into each
   consumer, so that operands and results stay unboxed. *)
let is_fbin = function
  | Prim.Fadd | Fsub | Fmul | Fdiv | Fmin | Fmax | Pow -> true
  | _ -> false

let[@inline] fbin (p : Prim.t) (x : float) (y : float) : float =
  match p with
  | Prim.Fadd -> x +. y
  | Fsub -> x -. y
  | Fmul -> x *. y
  | Fdiv -> x /. y
  | Fmin -> Float.min x y
  | Fmax -> Float.max x y
  | Pow -> x ** y
  | _ -> assert false

let[@inline] fun1 (p : Prim.t) (x : float) : float =
  match p with
  | Prim.Fneg -> -.x
  | Sqrt -> sqrt x
  | Exp -> exp x
  | Log -> log x
  | Fabs -> Float.abs x
  | _ -> assert false

(* Float comparisons keep [compare] semantics (NaN equals itself and sorts
   below every other float), as the interpreter does. *)
let[@inline] fcmp (p : Prim.t) (x : float) (y : float) : bool =
  match p with
  | Prim.Eq -> compare x y = 0
  | Ne -> compare x y <> 0
  | Lt -> compare x y < 0
  | Le -> compare x y <= 0
  | Gt -> compare x y > 0
  | Ge -> compare x y >= 0
  | _ -> assert false

(* A reduction function [a op b] over the binders, as an op-table entry. *)
let direct_fop ~(a : Sym.t) ~(b : Sym.t) (rfun : exp) : Prim.t option =
  match rfun with
  | Prim (p, [ Var x; Var y ]) when is_fbin p && Sym.equal x a && Sym.equal y b -> Some p
  | _ -> None

(* Element [i] of a non-[Fa] array, as a one-cell float array. *)
let boxed_elt v i = [| V.as_float (V.get v i) |]

(* The inline read [arr.(((v + o) * c) + w)] of the array in obj slot [ka].
   Both branches end in a float-array load, so the compiler keeps the
   result unboxed wherever it is let-bound (a plain call in the fallback
   would box it on the fast path too). *)
let[@inline] rd fr ka kv o c kw =
  let i = ((fr.is.(kv) + o) * c) + fr.is.(kw) in
  match fr.os.(ka) with
  | V.Varr (V.Fa a) -> a.(i)
  | v -> (boxed_elt v i).(0)

(* Where a consumer reads a float operand, inline. *)
type fsrc =
  | Reg of int  (** [fr.fs.(k)]: a symbol, temporary or constant register *)
  | Rd of { ka : int; kv : int; o : int; c : int; kw : int }  (** [rd] *)

(* A compiled operand: [pre] (when present) runs first and fills the
   register that [src] reads. *)
type fopnd = { pre : (frame -> unit) option; src : fsrc }

(* The obj slot holding an array-valued base expression, when it is a
   variable or input (the overwhelmingly common case after optimization). *)
let base_obj_slot ctx (e : exp) : int option =
  match e with
  | Var s -> ( match slot ctx s with Ko, k -> Some k | _ -> None)
  | Input (name, _, _) -> Some (input_slot ctx name)
  | _ -> None

(* An int subscript [((v + o) * c) + w] with [v], [w] int slots and [o],
   [c] constants; [o] defaults to 0, [c] to 1 and [w] to a slot that reads
   0.  Returns [(kv, o, c, kw)]. *)
let affine ctx (ix : exp) : (int * int * int * int) option =
  let ireg s = match slot ctx s with Ki, k -> Some k | _ -> None in
  let shifted = function
    | Var v -> Option.map (fun k -> (k, 0)) (ireg v)
    | Prim (Prim.Add, [ Var v; Const (Cint o) ]) | Prim (Prim.Add, [ Const (Cint o); Var v ])
      ->
        Option.map (fun k -> (k, o)) (ireg v)
    | _ -> None
  in
  let scaled = function
    | Prim (Prim.Mul, [ e; Const (Cint c) ]) | Prim (Prim.Mul, [ Const (Cint c); e ]) ->
        Option.map (fun (k, o) -> (k, o, c)) (shifted e)
    | e -> Option.map (fun (k, o) -> (k, o, 1)) (shifted e)
  in
  let plus e w =
    match (w, scaled e) with
    | Var w, Some (kv, o, c) -> Option.map (fun kw -> (kv, o, c, kw)) (ireg w)
    | _ -> None
  in
  let summed =
    match ix with
    | Prim (Prim.Add, [ a; b ]) -> ( match plus a b with Some _ as r -> r | None -> plus b a)
    | _ -> None
  in
  match summed with
  | Some _ -> summed
  | None -> Option.map (fun (kv, o, c) -> (kv, o, c, zero_ireg ctx)) (scaled ix)

(* ------------------------------------------------------------------ *)
(* Scalar compilation                                                  *)
(* ------------------------------------------------------------------ *)

(* How a consumer reads float [e]: registers, constants and affine reads
   fold inline; anything else is computed into a fresh temporary. *)
let rec comp_fsrc ctx (e : exp) : fopnd =
  match e with
  | Const (Cfloat f) -> { pre = None; src = Reg (const_freg ctx f) }
  | Var s -> (
      match slot ctx s with
      | Kf, k -> { pre = None; src = Reg k }
      | _ -> into_temp ctx e)
  | Read (arr, ix) -> (
      match base_obj_slot ctx arr with
      | Some ka -> (
          match affine ctx ix with
          | Some (kv, o, c, kw) -> { pre = None; src = Rd { ka; kv; o; c; kw } }
          | None -> into_temp ctx e)
      | None -> into_temp ctx e)
  | _ -> into_temp ctx e

and into_temp ctx e =
  let t = fresh_freg ctx in
  { pre = Some (comp_fd ctx e t); src = Reg t }

(* An operand of [e] (compiled by [comp_fsrc]) as a register: run the
   returned step, then read [fr.fs.(k)]. *)
and freg_of ctx (e : exp) (v : fopnd) : (frame -> unit) * int =
  match v with
  | { pre; src = Reg k } -> (Option.value pre ~default:nop, k)
  | { src = Rd _; _ } ->
      let t = fresh_freg ctx in
      (comp_fd ctx e t, t)

and comp_freg ctx e = freg_of ctx e (comp_fsrc ctx e)

(* Compile float [e] to a step that writes its value into register [d]. *)
and comp_fd ctx (e : exp) (d : int) : frame -> unit =
  match e with
  | Const (Cfloat f) -> fun fr -> fr.fs.(d) <- f
  | Var s -> (
      match slot ctx s with
      | Kf, k -> fun fr -> fr.fs.(d) <- fr.fs.(k)
      | Ko, k -> fun fr -> fr.fs.(d) <- V.as_float fr.os.(k)
      | Ki, _ -> fail "float variable in int slot: %a" Sym.pp s)
  | Prim (p, [ a; b ]) when is_fbin p -> comp_fbin ctx p a b d
  | Prim ((Prim.Fneg | Sqrt | Exp | Log | Fabs) as p, [ a ]) ->
      let { pre; src } = comp_fsrc ctx a in
      with_pre [ pre ]
        (match src with
        | Reg x -> fun fr -> fr.fs.(d) <- fun1 p fr.fs.(x)
        | Rd { ka; kv; o; c; kw } -> fun fr -> fr.fs.(d) <- fun1 p (rd fr ka kv o c kw))
  | Prim (Prim.I2f, [ a ]) ->
      let ca = comp_i ctx a in
      fun fr -> fr.fs.(d) <- float_of_int (ca fr)
  | Prim (p, args) ->
      (* other float-valued prims: evaluate boxed *)
      let cs = List.map (comp_v ctx) args in
      fun fr ->
        fr.fs.(d) <- V.as_float (Dmll_interp.Interp.eval_prim p (List.map (fun c -> c fr) cs))
  | If (c, t, f) ->
      let cc = comp_b ctx c and ct = comp_fd ctx t d and cf = comp_fd ctx f d in
      fun fr -> if cc fr then ct fr else cf fr
  | Let (s, bound, body) ->
      let store = comp_store ctx s bound in
      let cb = comp_fd ctx body d in
      fun fr ->
        store fr;
        cb fr
  | Read (arr, ix) -> (
      match (base_obj_slot ctx arr, affine ctx ix) with
      | Some ka, Some (kv, o, c, kw) -> fun fr -> fr.fs.(d) <- rd fr ka kv o c kw
      | Some ka, None ->
          let ci = comp_i ctx ix in
          fun fr ->
            let i = ci fr in
            fr.fs.(d) <-
              (match fr.os.(ka) with
              | V.Varr (V.Fa a) -> a.(i)
              | v -> V.as_float (V.get v i))
      | None, _ ->
          let ca = comp_v ctx arr and ci = comp_i ctx ix in
          fun fr ->
            let i = ci fr in
            fr.fs.(d) <-
              (match ca fr with
              | V.Varr (V.Fa a) -> a.(i)
              | v -> V.as_float (V.get v i)))
  | Loop { size; idx; gens = [ Reduce r ] } when Types.equal (tyof e) Types.Float ->
      comp_float_reduce ctx ~size ~idx r d
  | _ ->
      let cv = comp_v ctx e in
      fun fr -> fr.fs.(d) <- V.as_float (cv fr)

and comp_fbin ctx p a b d =
  let { pre = pa; src = sa } = comp_fsrc ctx a in
  let { pre = pb; src = sb } = comp_fsrc ctx b in
  with_pre [ pa; pb ]
    (match (sa, sb) with
    | Reg x, Reg y -> fun fr -> fr.fs.(d) <- fbin p fr.fs.(x) fr.fs.(y)
    | Reg x, Rd { ka; kv; o; c; kw } ->
        fun fr -> fr.fs.(d) <- fbin p fr.fs.(x) (rd fr ka kv o c kw)
    | Rd { ka; kv; o; c; kw }, Reg y ->
        fun fr -> fr.fs.(d) <- fbin p (rd fr ka kv o c kw) fr.fs.(y)
    | Rd { ka; kv; o; c; kw }, Rd r ->
        let ka' = r.ka and kv' = r.kv and o' = r.o and c' = r.c and kw' = r.kw in
        fun fr -> fr.fs.(d) <- fbin p (rd fr ka kv o c kw) (rd fr ka' kv' o' c' kw'))

(* The boxing adapter, for where a float becomes a [V.t] anyway (a
   [comp_v] result, a registry key): one box per evaluation. *)
and comp_f ctx e : frame -> V.t =
  let p, k = comp_freg ctx e in
  fun fr ->
    p fr;
    V.Vfloat fr.fs.(k)

(* A float Reduce loop: the accumulator is an unboxed local, written to
   [d] once the loop ends. *)
and comp_float_reduce ctx ~size ~idx (r : reduce_gen) (d : int) : frame -> unit =
  let _, kidx = alloc_slot ctx idx in
  let cn = comp_i ctx size in
  let pinit, kinit = comp_freg ctx r.init in
  let ccond = Option.map (comp_b ctx) r.cond in
  match direct_fop ~a:r.a ~b:r.b r.rfun with
  | Some op -> (
      match (ccond, comp_fsrc ctx r.value) with
      | None, { pre = None; src = Rd { ka; kv; o; c; kw } } ->
          fun fr ->
            let n = cn fr in
            pinit fr;
            let acc = ref fr.fs.(kinit) in
            for i = 0 to n - 1 do
              fr.is.(kidx) <- i;
              acc := fbin op !acc (rd fr ka kv o c kw)
            done;
            fr.fs.(d) <- !acc
      | None, v ->
          let pv, kv = freg_of ctx r.value v in
          fun fr ->
            let n = cn fr in
            pinit fr;
            let acc = ref fr.fs.(kinit) in
            for i = 0 to n - 1 do
              fr.is.(kidx) <- i;
              pv fr;
              acc := fbin op !acc fr.fs.(kv)
            done;
            fr.fs.(d) <- !acc
      | Some cc, v ->
          let pv, kv = freg_of ctx r.value v in
          fun fr ->
            let n = cn fr in
            pinit fr;
            let acc = ref fr.fs.(kinit) in
            for i = 0 to n - 1 do
              fr.is.(kidx) <- i;
              if cc fr then begin
                pv fr;
                acc := fbin op !acc fr.fs.(kv)
              end
            done;
            fr.fs.(d) <- !acc)
  | None ->
      (* general reduction function: the accumulator lives in [a]'s
         register, the value is written straight into [b]'s *)
      let _, ka = alloc_slot ctx r.a and _, kb = alloc_slot ctx r.b in
      let sv = comp_fd ctx r.value kb in
      let pr, kr = comp_freg ctx r.rfun in
      fun fr ->
        let n = cn fr in
        pinit fr;
        fr.fs.(ka) <- fr.fs.(kinit);
        for i = 0 to n - 1 do
          fr.is.(kidx) <- i;
          let pass = match ccond with None -> true | Some cc -> cc fr in
          if pass then begin
            sv fr;
            pr fr;
            fr.fs.(ka) <- fr.fs.(kr)
          end
        done;
        fr.fs.(d) <- fr.fs.(ka)

and comp_i ctx (e : exp) : frame -> int =
  match e with
  | Const (Cint i) -> fun _ -> i
  | Const (Cbool b) ->
      let v = if b then 1 else 0 in
      fun _ -> v
  | Var s -> (
      match slot ctx s with
      | Ki, k -> fun fr -> fr.is.(k)
      | Ko, k -> fun fr -> V.as_int fr.os.(k)
      | Kf, _ -> fail "int variable in float slot: %a" Sym.pp s)
  (* affine subscripts: (v*c) + w and friends, one closure total *)
  | Prim (Prim.Add, [ Prim (Prim.Mul, [ Var v; Const (Cint c) ]); Var w ])
  | Prim (Prim.Add, [ Prim (Prim.Mul, [ Const (Cint c); Var v ]); Var w ])
  | Prim (Prim.Add, [ Var w; Prim (Prim.Mul, [ Var v; Const (Cint c) ]) ])
  | Prim (Prim.Add, [ Var w; Prim (Prim.Mul, [ Const (Cint c); Var v ]) ]) -> (
      match (slot ctx v, slot ctx w) with
      | (Ki, kv), (Ki, kw) -> fun fr -> (fr.is.(kv) * c) + fr.is.(kw)
      | _ -> comp_i_generic_bin ctx e)
  | Prim (p, [ a; b ]) -> (
      let bin op =
        match (a, b) with
        | _, Const (Cint c) ->
            let ca = comp_i ctx a in
            fun fr -> op (ca fr) c
        | Const (Cint c), _ ->
            let cb = comp_i ctx b in
            fun fr -> op c (cb fr)
        | _ ->
            let ca = comp_i ctx a and cb = comp_i ctx b in
            fun fr -> op (ca fr) (cb fr)
      in
      match p with
      | Prim.Add -> bin ( + )
      | Sub -> bin ( - )
      | Mul -> bin ( * )
      | Div -> (
          match b with
          | Const (Cint c) when c <> 0 ->
              let ca = comp_i ctx a in
              fun fr -> ca fr / c
          | _ ->
              let ca = comp_i ctx a and cb = comp_i ctx b in
              fun fr ->
                let d = cb fr in
                if d = 0 then fail "integer division by zero" else ca fr / d)
      | Mod -> (
          match b with
          | Const (Cint c) when c <> 0 ->
              let ca = comp_i ctx a in
              fun fr -> ca fr mod c
          | _ ->
              let ca = comp_i ctx a and cb = comp_i ctx b in
              fun fr ->
                let d = cb fr in
                if d = 0 then fail "integer modulo by zero" else ca fr mod d)
      | Min -> bin Stdlib.min
      | Max -> bin Stdlib.max
      | Strget ->
          let ca = comp_v ctx a and cb = comp_i ctx b in
          fun fr -> Char.code (V.as_str (ca fr)).[cb fr]
      | _ -> comp_i_generic ctx e)
  | Prim (Prim.Neg, [ a ]) ->
      let ca = comp_i ctx a in
      fun fr -> -ca fr
  | Prim (Prim.F2i, [ a ]) ->
      let pa, ka = comp_freg ctx a in
      fun fr ->
        pa fr;
        int_of_float fr.fs.(ka)
  | Prim (Prim.Strlen, [ a ]) ->
      let ca = comp_v ctx a in
      fun fr -> String.length (V.as_str (ca fr))
  | If (c, t, f) ->
      let cc = comp_b ctx c and ct = comp_i ctx t and cf = comp_i ctx f in
      fun fr -> if cc fr then ct fr else cf fr
  | Let (s, bound, body) ->
      let store = comp_store ctx s bound in
      let cb = comp_i ctx body in
      fun fr ->
        store fr;
        cb fr
  | Len a ->
      let ca = comp_v ctx a in
      fun fr -> V.length (ca fr)
  | Read (arr, ix) -> (
      let ci = comp_i ctx ix in
      match base_obj_slot ctx arr with
      | Some k ->
          fun fr -> (
            match fr.os.(k) with
            | V.Varr (V.Ia a) -> a.(ci fr)
            | v -> V.as_int (V.get v (ci fr)))
      | None ->
          let ca = comp_v ctx arr in
          fun fr -> (
            match ca fr with
            | V.Varr (V.Ia a) -> a.(ci fr)
            | v -> V.as_int (V.get v (ci fr))))
  | Loop { size; idx; gens = [ Reduce r ] } when Types.equal (tyof e) Types.Int ->
      comp_int_reduce ctx ~size ~idx r
  | _ -> comp_i_generic ctx e

and comp_i_generic_bin ctx e =
  match e with
  | Prim (Prim.Add, [ a; b ]) ->
      let ca = comp_i ctx a and cb = comp_i ctx b in
      fun fr -> ca fr + cb fr
  | _ -> comp_i_generic ctx e

and comp_i_generic ctx e =
  let cv = comp_v ctx e in
  fun fr ->
    match cv fr with
    | V.Vint i -> i
    | V.Vbool b -> if b then 1 else 0
    | v -> fail "expected int, got %s" (V.to_string v)

and comp_int_reduce ctx ~size ~idx (r : reduce_gen) : frame -> int =
  let _, kidx = alloc_slot ctx idx in
  let cn = comp_i ctx size in
  let cinit = comp_i ctx r.init in
  let cv = comp_i ctx r.value in
  let ccond = Option.map (comp_b ctx) r.cond in
  let direct : (int -> int -> int) option =
    match r.rfun with
    | Prim (p, [ Var x; Var y ]) when Sym.equal x r.a && Sym.equal y r.b -> (
        match p with
        | Prim.Add -> Some ( + )
        | Mul -> Some ( * )
        | Min -> Some Stdlib.min
        | Max -> Some Stdlib.max
        | _ -> None)
    | _ -> None
  in
  match direct with
  | Some op ->
      fun fr ->
        let n = cn fr in
        let acc = ref (cinit fr) in
        for i = 0 to n - 1 do
          fr.is.(kidx) <- i;
          let pass = match ccond with None -> true | Some cc -> cc fr in
          if pass then acc := op !acc (cv fr)
        done;
        !acc
  | None ->
      let _, ka = alloc_slot ctx r.a and _, kb = alloc_slot ctx r.b in
      let cr = comp_i ctx r.rfun in
      fun fr ->
        let n = cn fr in
        let acc = ref (cinit fr) in
        for i = 0 to n - 1 do
          fr.is.(kidx) <- i;
          let pass = match ccond with None -> true | Some cc -> cc fr in
          if pass then begin
            fr.is.(ka) <- !acc;
            fr.is.(kb) <- cv fr;
            acc := cr fr
          end
        done;
        !acc

and comp_b ctx (e : exp) : frame -> bool =
  match e with
  | Const (Cbool b) -> fun _ -> b
  | Var s -> (
      match slot ctx s with
      | Ki, k -> fun fr -> fr.is.(k) <> 0
      | Ko, k -> fun fr -> V.as_bool fr.os.(k)
      | Kf, _ -> fail "bool variable in float slot")
  | Prim ((Prim.Eq | Ne | Lt | Le | Gt | Ge) as p, [ a; b ]) -> (
      match tyof a with
      | Types.Int | Types.Bool -> (
          let ca = comp_i ctx a and cb = comp_i ctx b in
          match p with
          | Prim.Eq -> fun fr -> ca fr = cb fr
          | Ne -> fun fr -> ca fr <> cb fr
          | Lt -> fun fr -> ca fr < cb fr
          | Le -> fun fr -> ca fr <= cb fr
          | Gt -> fun fr -> ca fr > cb fr
          | Ge -> fun fr -> ca fr >= cb fr
          | _ -> assert false)
      | Types.Float ->
          let { pre = pa; src = sa } = comp_fsrc ctx a in
          let { pre = pb; src = sb } = comp_fsrc ctx b in
          with_pre [ pa; pb ]
            (match (sa, sb) with
            | Reg x, Reg y -> fun fr -> fcmp p fr.fs.(x) fr.fs.(y)
            | Reg x, Rd { ka; kv; o; c; kw } ->
                fun fr -> fcmp p fr.fs.(x) (rd fr ka kv o c kw)
            | Rd { ka; kv; o; c; kw }, Reg y ->
                fun fr -> fcmp p (rd fr ka kv o c kw) fr.fs.(y)
            | Rd { ka; kv; o; c; kw }, Rd r ->
                let ka' = r.ka and kv' = r.kv and o' = r.o and c' = r.c and kw' = r.kw in
                fun fr -> fcmp p (rd fr ka kv o c kw) (rd fr ka' kv' o' c' kw'))
      | _ -> (
          let ca = comp_v ctx a and cb = comp_v ctx b in
          let cmp_of : int -> bool =
            match p with
            | Prim.Eq -> fun c -> c = 0
            | Ne -> fun c -> c <> 0
            | Lt -> fun c -> c < 0
            | Le -> fun c -> c <= 0
            | Gt -> fun c -> c > 0
            | Ge -> fun c -> c >= 0
            | _ -> assert false
          in
          fun fr -> cmp_of (compare (ca fr) (cb fr))))
  | Prim (Prim.And, [ a; b ]) ->
      let ca = comp_b ctx a and cb = comp_b ctx b in
      fun fr -> ca fr && cb fr
  | Prim (Prim.Or, [ a; b ]) ->
      let ca = comp_b ctx a and cb = comp_b ctx b in
      fun fr -> ca fr || cb fr
  | Prim (Prim.Not, [ a ]) ->
      let ca = comp_b ctx a in
      fun fr -> not (ca fr)
  | If (c, t, f) ->
      let cc = comp_b ctx c and ct = comp_b ctx t and cf = comp_b ctx f in
      fun fr -> if cc fr then ct fr else cf fr
  | Let (s, bound, body) ->
      let store = comp_store ctx s bound in
      let cb = comp_b ctx body in
      fun fr ->
        store fr;
        cb fr
  | _ ->
      let cv = comp_v ctx e in
      fun fr -> V.as_bool (cv fr)

(* Compile [bound] and store it into [s]'s slot. *)
and comp_store ctx (s : Sym.t) (bound : exp) : frame -> unit =
  match alloc_slot ctx s with
  | Kf, k -> comp_fd ctx bound k
  | Ki, k -> (
      match Sym.ty s with
      | Types.Bool ->
          let cb = comp_b ctx bound in
          fun fr -> fr.is.(k) <- (if cb fr then 1 else 0)
      | _ ->
          let cb = comp_i ctx bound in
          fun fr -> fr.is.(k) <- cb fr)
  | Ko, k ->
      let cb = comp_v ctx bound in
      fun fr -> fr.os.(k) <- cb fr

(* ------------------------------------------------------------------ *)
(* Generic compilation                                                 *)
(* ------------------------------------------------------------------ *)

and comp_v ctx (e : exp) : frame -> V.t =
  match e with
  | Const Cunit -> fun _ -> V.Vunit
  | Const (Cbool b) -> fun _ -> V.Vbool b
  | Const (Cint i) -> fun _ -> V.Vint i
  | Const (Cfloat f) ->
      let v = V.Vfloat f in
      fun _ -> v
  | Const (Cstr s) -> fun _ -> V.Vstr s
  | Var s -> (
      match slot ctx s with
      | Kf, k -> fun fr -> V.Vfloat fr.fs.(k)
      | Ki, k -> (
          match Sym.ty s with
          | Types.Bool -> fun fr -> V.Vbool (fr.is.(k) <> 0)
          | _ -> fun fr -> V.Vint fr.is.(k))
      | Ko, k -> fun fr -> fr.os.(k))
  | Input (name, _, _) ->
      let k = input_slot ctx name in
      fun fr -> fr.os.(k)
  | If (c, t, f) -> (
      match tyof e with
      | Types.Float -> comp_f ctx e
      | Types.Int ->
          let ci = comp_i ctx e in
          fun fr -> V.Vint (ci fr)
      | Types.Bool ->
          let cb = comp_b ctx e in
          fun fr -> V.Vbool (cb fr)
      | _ ->
          let cc = comp_b ctx c and ct = comp_v ctx t and cf = comp_v ctx f in
          fun fr -> if cc fr then ct fr else cf fr)
  | Prim (p, args) -> (
      match tyof e with
      | Types.Float -> comp_f ctx e
      | Types.Int ->
          let ci = comp_i ctx e in
          fun fr -> V.Vint (ci fr)
      | Types.Bool ->
          let cb = comp_b ctx e in
          fun fr -> V.Vbool (cb fr)
      | _ ->
          (* string-valued prims and other rarities: evaluate boxed *)
          let cs = List.map (comp_v ctx) args in
          fun fr -> Dmll_interp.Interp.eval_prim p (List.map (fun c -> c fr) cs))
  | Let (s, bound, body) ->
      let store = comp_store ctx s bound in
      let cb = comp_v ctx body in
      fun fr ->
        store fr;
        cb fr
  | Tuple es ->
      let cs = Array.of_list (List.map (comp_v ctx) es) in
      fun fr -> V.Vtup (Array.map (fun c -> c fr) cs)
  | Proj (a, i) ->
      let ca = comp_v ctx a in
      fun fr -> (
        match ca fr with
        | V.Vtup vs -> vs.(i)
        | v -> fail "projection from %s" (V.to_string v))
  | Record (_, fs) ->
      let cs = Array.of_list (List.map (fun (n, v) -> (n, comp_v ctx v)) fs) in
      fun fr -> V.Vstruct (Array.map (fun (n, c) -> (n, c fr)) cs)
  | Field (a, n) ->
      let ca = comp_v ctx a in
      fun fr -> V.struct_field (ca fr) n
  | Len a ->
      let ca = comp_v ctx a in
      fun fr -> V.Vint (V.length (ca fr))
  | Read (a, ix) ->
      let ca = comp_v ctx a and ci = comp_i ctx ix in
      fun fr -> V.get (ca fr) (ci fr)
  | MapRead (m, k, d) ->
      let cm = comp_v ctx m and ck = comp_v ctx k in
      let cd = Option.map (comp_v ctx) d in
      (* keyed lookups usually hit the same map many times (membership
         tests in graph kernels); build a hash index per map value *)
      let cache : (V.t * int Vtbl.t) option ref = ref None in
      fun fr -> (
        let mv = cm fr in
        let vm = V.as_map mv in
        let tbl =
          match !cache with
          | Some (m0, tbl) when m0 == mv -> tbl
          | _ ->
              let tbl = Vtbl.create (Stdlib.max 16 (Array.length vm.V.mkeys)) in
              Array.iteri (fun i key -> Vtbl.replace tbl key i) vm.V.mkeys;
              cache := Some (mv, tbl);
              tbl
        in
        match Vtbl.find_opt tbl (ck fr) with
        | Some i -> vm.V.mvals.(i)
        | None -> (
            match cd with
            | Some cd -> cd fr
            | None -> fail "map key not found"))
  | KeyAt (m, ix) ->
      let cm = comp_v ctx m and ci = comp_i ctx ix in
      fun fr -> (V.as_map (cm fr)).V.mkeys.(ci fr)
  | Extern { ename; eargs; _ } ->
      let cs = List.map (comp_v ctx) eargs in
      fun fr -> (
        match Hashtbl.find_opt Dmll_interp.Interp.extern_registry ename with
        | Some f -> f (List.map (fun c -> c fr) cs)
        | None -> fail "unregistered extern %s" ename)
  | Loop { gens = [ Reduce _ ]; _ } when Types.equal (tyof e) Types.Float -> comp_f ctx e
  | Loop l -> comp_loop ctx l

(* ------------------------------------------------------------------ *)
(* Generator compilation                                               *)
(* ------------------------------------------------------------------ *)

(* Per-generator compiled accumulator: reset (given the frame and the loop
   size) / step / finish. *)
and comp_gen ctx ~(registry_of : gen -> registry option) (g : gen) :
    (frame -> int -> unit) * (frame -> unit) * (unit -> V.t) =
  match g with
  | Collect { cond; value } -> comp_collect ctx ~cond ~value
  | Reduce r -> comp_reduce_gen ctx r
  | BucketCollect { value; _ } ->
      let reg = match registry_of g with Some r -> r | None -> assert false in
      comp_bucket_collect ctx ~reg ~value
  | BucketReduce r ->
      let reg = match registry_of g with Some reg -> reg | None -> assert false in
      comp_bucket_reduce ctx ~reg r

and comp_collect ctx ~cond ~value =
  match (tyof value, cond) with
  | Types.Float, None ->
      (* exact-size unboxed fill *)
      let pv, kv = comp_freg ctx value in
      let out = ref [||] in
      let k = ref 0 in
      ( (fun _ n ->
          out := Array.make n 0.0;
          k := 0),
        (fun fr ->
          pv fr;
          !out.(!k) <- fr.fs.(kv);
          incr k),
        fun () -> V.Varr (V.Fa !out) )
  | Types.Int, None ->
      let cv = comp_i ctx value in
      let out = ref [||] in
      let k = ref 0 in
      ( (fun _ n ->
          out := Array.make n 0;
          k := 0),
        (fun fr ->
          !out.(!k) <- cv fr;
          incr k),
        fun () -> V.Varr (V.Ia !out) )
  | Types.Float, Some c ->
      let cc = comp_b ctx c in
      let pv, kv = comp_freg ctx value in
      let buf = ref (Fbuf.create ()) in
      ( (fun _ _ -> buf := Fbuf.create ()),
        (fun fr ->
          if cc fr then begin
            pv fr;
            Fbuf.push !buf fr.fs.(kv)
          end),
        fun () -> V.Varr (V.Fa (Fbuf.contents !buf)) )
  | Types.Int, Some c ->
      let cc = comp_b ctx c in
      let cv = comp_i ctx value in
      let buf = ref (Ibuf.create ()) in
      ( (fun _ _ -> buf := Ibuf.create ()),
        (fun fr -> if cc fr then Ibuf.push !buf (cv fr)),
        fun () -> V.Varr (V.Ia (Ibuf.contents !buf)) )
  | _, cond ->
      let ccond = Option.map (comp_b ctx) cond in
      let guard fr = match ccond with None -> true | Some c -> c fr in
      let cv = comp_v ctx value in
      let buf = ref (Obuf.create V.Vunit) in
      ( (fun _ _ -> buf := Obuf.create V.Vunit),
        (fun fr -> if guard fr then Obuf.push !buf (cv fr)),
        fun () -> V.Varr (V.Ga (Obuf.contents !buf)) )

(* Recognize the zipWith-add reduction function over the accumulator
   binders: rfun = Collect over len(a)/len(b) of a(i) + b(i). *)
and is_vec_fadd_rfun ~(a : Sym.t) ~(b : Sym.t) (rfun : exp) : bool =
  match rfun with
  | Loop
      { size = Len (Var x);
        idx = iz;
        gens = [ Collect { cond = None; value = Prim (Prim.Fadd, [ l; r ]) } ];
      }
    when Sym.equal x a || Sym.equal x b -> (
      match (l, r) with
      | Read (Var la, Var li), Read (Var rb, Var ri) ->
          Sym.equal li iz && Sym.equal ri iz
          && ((Sym.equal la a && Sym.equal rb b) || (Sym.equal la b && Sym.equal rb a))
      | _ -> false)
  | _ -> false

(* Peel leading Lets from a value expression, returning their stores and
   the residue (for fusing reduce values through code-motion lets). *)
and peel_lets ctx (e : exp) : (frame -> unit) list * exp =
  match e with
  | Let (s, bound, body) ->
      let store = comp_store ctx s bound in
      let stores, residue = peel_lets ctx body in
      (store :: stores, residue)
  | _ -> ([], e)

(* The fused vector-add body: [a.(j) <- a.(j) +. ev] for [j < n], with the
   element read inline when it is an affine read. *)
and comp_vec_accum ctx ~(kj : int) (ev : exp) : frame -> float array -> int -> unit =
  match comp_fsrc ctx ev with
  | { pre = None; src = Rd { ka; kv; o; c; kw } } ->
      fun fr a n ->
        for j = 0 to n - 1 do
          fr.is.(kj) <- j;
          a.(j) <- a.(j) +. rd fr ka kv o c kw
        done
  | v ->
      let pe, ke = freg_of ctx ev v in
      fun fr a n ->
        for j = 0 to n - 1 do
          fr.is.(kj) <- j;
          pe fr;
          a.(j) <- a.(j) +. fr.fs.(ke)
        done

(* The argmin/argmax shape: reduce over (scalar, payload) pairs keeping
   the pair whose first component wins the comparison. *)
and comp_argmin_reduce ctx (r : reduce_gen) :
    ((frame -> int -> unit) * (frame -> unit) * (unit -> V.t)) option =
  match (r.value, r.rfun, r.init) with
  | ( Tuple [ fv; fi ],
      If
        ( Prim ((Prim.Le | Lt | Ge | Gt) as cmp, [ Proj (Var a1, 0); Proj (Var b1, 0) ]),
          Var a2,
          Var b2 ),
      Tuple [ Const (Cfloat init_f); Const (Cint init_i) ] )
    when Sym.equal a1 r.a && Sym.equal b1 r.b && Sym.equal a2 r.a && Sym.equal b2 r.b
         && Types.equal (tyof fv) Types.Float
         && Types.equal (tyof fi) Types.Int ->
      let pv, kv = comp_freg ctx fv and cvi = comp_i ctx fi in
      let ccond = Option.map (comp_b ctx) r.cond in
      (* the accumulator keeps the pair unless the value beats it *)
      let best = [| init_f |] and bi = ref init_i in
      Some
        ( (fun _ _ ->
            best.(0) <- init_f;
            bi := init_i),
          (fun fr ->
            let pass = match ccond with None -> true | Some c -> c fr in
            if pass then begin
              pv fr;
              let v = fr.fs.(kv) in
              if not (fcmp cmp best.(0) v) then begin
                best.(0) <- v;
                bi := cvi fr
              end
            end),
          fun () -> V.Vtup [| V.Vfloat best.(0); V.Vint !bi |] )
  | _ -> None

(* In-place vector-add reduce: value is (lets +) a Collect of floats,
   reduction is elementwise add.  The value collect is fused into the
   accumulation loop: zero per-iteration allocation. *)
and comp_vecadd_reduce ctx (r : reduce_gen) :
    ((frame -> int -> unit) * (frame -> unit) * (unit -> V.t)) option =
  if not (is_vec_fadd_rfun ~a:r.a ~b:r.b r.rfun) then None
  else
    let stores, residue = peel_lets ctx r.value in
    let stores = seq_steps stores in
    match residue with
    | Loop { size = s2; idx = j2; gens = [ Collect { cond = None; value = ev } ] }
      when Types.equal (tyof ev) Types.Float ->
        let cs2 = comp_i ctx s2 in
        let _, kj2 = alloc_slot ctx j2 in
        let accum = comp_vec_accum ctx ~kj:kj2 ev in
        let cinit = comp_v ctx r.init in
        let ccond = Option.map (comp_b ctx) r.cond in
        let acc = ref [||] in
        Some
          ( (fun fr _ -> acc := V.to_float_array (cinit fr)),
            (fun fr ->
              let pass = match ccond with None -> true | Some c -> c fr in
              if pass then begin
                stores fr;
                accum fr !acc (cs2 fr)
              end),
            fun () -> V.Varr (V.Fa (Array.copy !acc)) )
    | _ -> None

and comp_reduce_gen ctx (r : reduce_gen) =
  match comp_argmin_reduce ctx r with
  | Some g -> g
  | None -> (
      match comp_vecadd_reduce ctx r with
      | Some g -> g
      | None -> (
          let ccond = Option.map (comp_b ctx) r.cond in
          let guard fr = match ccond with None -> true | Some c -> c fr in
          match tyof r.value with
          | Types.Float -> (
              (* the accumulator outlives a step: a one-cell float array *)
              let pinit, kinit = comp_freg ctx r.init in
              let acc = [| 0.0 |] in
              let reset fr _ =
                pinit fr;
                acc.(0) <- fr.fs.(kinit)
              in
              let fin () = V.Vfloat acc.(0) in
              match direct_fop ~a:r.a ~b:r.b r.rfun with
              | Some op ->
                  let pv, kv = comp_freg ctx r.value in
                  ( reset,
                    (fun fr ->
                      if guard fr then begin
                        pv fr;
                        acc.(0) <- fbin op acc.(0) fr.fs.(kv)
                      end),
                    fin )
              | None ->
                  let _, ka = alloc_slot ctx r.a and _, kb = alloc_slot ctx r.b in
                  let sv = comp_fd ctx r.value kb in
                  let pr, kr = comp_freg ctx r.rfun in
                  ( reset,
                    (fun fr ->
                      if guard fr then begin
                        fr.fs.(ka) <- acc.(0);
                        sv fr;
                        pr fr;
                        acc.(0) <- fr.fs.(kr)
                      end),
                    fin ))
          | Types.Int -> (
              let cv = comp_i ctx r.value in
              let cinit = comp_i ctx r.init in
              let acc = ref 0 in
              let direct =
                match r.rfun with
                | Prim (p, [ Var x; Var y ]) when Sym.equal x r.a && Sym.equal y r.b
                  -> (
                    match p with
                    | Prim.Add -> Some ( + )
                    | Mul -> Some ( * )
                    | Min -> Some Stdlib.min
                    | Max -> Some Stdlib.max
                    | _ -> None)
                | _ -> None
              in
              match direct with
              | Some op ->
                  ( (fun fr _ -> acc := cinit fr),
                    (fun fr -> if guard fr then acc := op !acc (cv fr)),
                    fun () -> V.Vint !acc )
              | None ->
                  let _, ka = alloc_slot ctx r.a and _, kb = alloc_slot ctx r.b in
                  let cr = comp_i ctx r.rfun in
                  ( (fun fr _ -> acc := cinit fr),
                    (fun fr ->
                      if guard fr then begin
                        fr.is.(ka) <- !acc;
                        fr.is.(kb) <- cv fr;
                        acc := cr fr
                      end),
                    fun () -> V.Vint !acc ))
          | _ ->
              (* generic reduce over boxed values *)
              let cv = comp_v ctx r.value in
              let cinit = comp_v ctx r.init in
              let _, ka = alloc_slot ctx r.a and _, kb = alloc_slot ctx r.b in
              let cr = comp_v ctx r.rfun in
              let acc = ref V.Vunit in
              ( (fun fr _ -> acc := cinit fr),
                (fun fr ->
                  if guard fr then begin
                    fr.os.(ka) <- !acc;
                    fr.os.(kb) <- cv fr;
                    acc := cr fr
                  end),
                fun () -> !acc )))

and comp_bucket_collect ctx ~(reg : registry) ~value =
  let cv = comp_v ctx value in
  let vals : V.t list Obuf.t ref = ref (Obuf.create []) in
  ( (fun _ _ -> vals := Obuf.create []),
    (fun fr ->
      let s = registry_slot reg fr in
      if s >= 0 then begin
        while !vals.Obuf.n <= s do
          Obuf.push !vals []
        done;
        !vals.Obuf.a.(s) <- cv fr :: !vals.Obuf.a.(s)
      end),
    fun () ->
      let n = reg.rkeys.Obuf.n in
      let mkeys = Obuf.contents reg.rkeys in
      let mvals =
        Array.init n (fun i ->
            let b = if i < !vals.Obuf.n then !vals.Obuf.a.(i) else [] in
            V.Varr (V.varr_of_list (List.rev b)))
      in
      V.Vmap { mkeys; mvals } )

and comp_bucket_reduce ctx ~(reg : registry) (r : bucket_reduce_gen) =
  match tyof r.value with
  | Types.Float ->
      let pinit, kinit = comp_freg ctx r.init in
      let accs = ref (Fbuf.create ()) in
      let ensure fr s =
        while !accs.Fbuf.n <= s do
          pinit fr;
          Fbuf.push !accs fr.fs.(kinit)
        done
      in
      let step =
        match direct_fop ~a:r.a ~b:r.b r.rfun with
        | Some op ->
            let pv, kv = comp_freg ctx r.value in
            fun fr ->
              let s = registry_slot reg fr in
              if s >= 0 then begin
                ensure fr s;
                pv fr;
                let a = !accs.Fbuf.a in
                a.(s) <- fbin op a.(s) fr.fs.(kv)
              end
        | None ->
            let _, ka = alloc_slot ctx r.a and _, kb = alloc_slot ctx r.b in
            let sv = comp_fd ctx r.value kb in
            let pr, kr = comp_freg ctx r.rfun in
            fun fr ->
              let s = registry_slot reg fr in
              if s >= 0 then begin
                ensure fr s;
                fr.fs.(ka) <- !accs.Fbuf.a.(s);
                sv fr;
                pr fr;
                !accs.Fbuf.a.(s) <- fr.fs.(kr)
              end
      in
      ( (fun _ _ -> accs := Fbuf.create ()),
        step,
        fun () ->
          V.Vmap
            { mkeys = Obuf.contents reg.rkeys;
              mvals = Array.map (fun f -> V.Vfloat f) (Fbuf.contents !accs);
            } )
  | Types.Int ->
      let cv = comp_i ctx r.value in
      let cinit = comp_i ctx r.init in
      let direct =
        match r.rfun with
        | Prim (p, [ Var x; Var y ]) when Sym.equal x r.a && Sym.equal y r.b -> (
            match p with
            | Prim.Add -> Some ( + )
            | Mul -> Some ( * )
            | Min -> Some Stdlib.min
            | Max -> Some Stdlib.max
            | _ -> None)
        | _ -> None
      in
      let accs = ref (Ibuf.create ()) in
      let ensure fr s =
        while !accs.Ibuf.n <= s do
          Ibuf.push !accs (cinit fr)
        done
      in
      let step =
        match direct with
        | Some op ->
            fun fr ->
              let s = registry_slot reg fr in
              if s >= 0 then begin
                ensure fr s;
                !accs.Ibuf.a.(s) <- op !accs.Ibuf.a.(s) (cv fr)
              end
        | None ->
            let _, ka = alloc_slot ctx r.a and _, kb = alloc_slot ctx r.b in
            let cr = comp_i ctx r.rfun in
            fun fr ->
              let s = registry_slot reg fr in
              if s >= 0 then begin
                ensure fr s;
                fr.is.(ka) <- !accs.Ibuf.a.(s);
                fr.is.(kb) <- cv fr;
                !accs.Ibuf.a.(s) <- cr fr
              end
      in
      ( (fun _ _ -> accs := Ibuf.create ()),
        step,
        fun () ->
          V.Vmap
            { mkeys = Obuf.contents reg.rkeys;
              mvals = Array.map (fun i -> V.Vint i) (Ibuf.contents !accs);
            } )
  | _ when is_vec_fadd_rfun ~a:r.a ~b:r.b r.rfun -> (
      (* in-place per-bucket vector accumulation (k-means' sums) *)
      let stores, residue = peel_lets ctx r.value in
      let stores = seq_steps stores in
      match residue with
      | Loop { size = s2; idx = j2; gens = [ Collect { cond = None; value = ev } ] }
        when Types.equal (tyof ev) Types.Float ->
          let cs2 = comp_i ctx s2 in
          let _, kj2 = alloc_slot ctx j2 in
          let accum = comp_vec_accum ctx ~kj:kj2 ev in
          let cinit = comp_v ctx r.init in
          let accs : float array Obuf.t ref = ref (Obuf.create [||]) in
          ( (fun _ _ -> accs := Obuf.create [||]),
            (fun fr ->
              let s = registry_slot reg fr in
              if s >= 0 then begin
                while !accs.Obuf.n <= s do
                  Obuf.push !accs (V.to_float_array (cinit fr))
                done;
                stores fr;
                accum fr !accs.Obuf.a.(s) (cs2 fr)
              end),
            fun () ->
              V.Vmap
                { mkeys = Obuf.contents reg.rkeys;
                  mvals =
                    Array.map
                      (fun a -> V.Varr (V.Fa (Array.copy a)))
                      (Obuf.contents !accs);
                } )
      | _ -> comp_bucket_reduce_generic ctx ~reg r)
  | _ -> comp_bucket_reduce_generic ctx ~reg r

and comp_bucket_reduce_generic ctx ~(reg : registry) (r : bucket_reduce_gen) =
  let cv = comp_v ctx r.value in
  let cinit = comp_v ctx r.init in
  let _, ka = alloc_slot ctx r.a and _, kb = alloc_slot ctx r.b in
  let cr = comp_v ctx r.rfun in
  let accs = ref (Obuf.create V.Vunit) in
  ( (fun _ _ -> accs := Obuf.create V.Vunit),
    (fun fr ->
      let s = registry_slot reg fr in
      if s >= 0 then begin
        while !accs.Obuf.n <= s do
          Obuf.push !accs (cinit fr)
        done;
        fr.os.(ka) <- !accs.Obuf.a.(s);
        fr.os.(kb) <- cv fr;
        !accs.Obuf.a.(s) <- cr fr
      end),
    fun () ->
      V.Vmap { mkeys = Obuf.contents reg.rkeys; mvals = Obuf.contents !accs } )

(* ------------------------------------------------------------------ *)
(* Multiloop compilation                                               *)
(* ------------------------------------------------------------------ *)

and comp_loop ctx (l : loop) : frame -> V.t =
  let _, kidx = alloc_slot ctx l.idx in
  let cn = comp_i ctx l.size in
  (* registries: one per (cond, key) alpha-class of the bucket gens, so
     sibling generators (horizontal fusion's output) share one hash probe
     per iteration *)
  let registries : (exp option * exp * registry) list ref = ref [] in
  let opt_alpha a b =
    match (a, b) with
    | None, None -> true
    | Some x, Some y -> alpha_equal x y
    | _ -> false
  in
  let registry_of (g : gen) : registry option =
    match gen_key g with
    | None -> None
    | Some key -> (
        let cond = gen_cond g in
        match
          List.find_opt
            (fun (c, k, _) -> opt_alpha c cond && alpha_equal k key)
            !registries
        with
        | Some (_, _, reg) -> Some reg
        | None ->
            let reg =
              new_registry ~kidx ~rkey:(comp_v ctx key)
                ~rcond:(Option.map (comp_b ctx) cond)
            in
            registries := (cond, key, reg) :: !registries;
            Some reg)
  in
  let gens = List.map (comp_gen ctx ~registry_of) l.gens in
  let regs = !registries in
  let reset_registries () = List.iter (fun (_, _, r) -> registry_reset r) regs in
  match gens with
  | [ (reset, step, fin) ] ->
      fun fr ->
        let n = cn fr in
        reset_registries ();
        reset fr n;
        for i = 0 to n - 1 do
          fr.is.(kidx) <- i;
          step fr
        done;
        fin ()
  | gens ->
      let steps = Array.of_list (List.map (fun (_, step, _) -> step) gens) in
      fun fr ->
        let n = cn fr in
        reset_registries ();
        List.iter (fun (reset, _, _) -> reset fr n) gens;
        for i = 0 to n - 1 do
          fr.is.(kidx) <- i;
          for g = 0 to Array.length steps - 1 do
            steps.(g) fr
          done
        done;
        V.Vtup (Array.of_list (List.map (fun (_, _, fin) -> fin ()) gens))

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

type compiled = {
  run : ?inputs:(string * V.t) list -> unit -> V.t;
  frame_sizes : int * int * int;
}

(** Compile a program once; [run] may be invoked many times (e.g. once per
    benchmark repetition) with different inputs. *)
let compile (e : exp) : compiled =
  let ctx = new_ctx () in
  let root = comp_v ctx e in
  let consts =
    Hashtbl.fold (fun bits k acc -> (k, Int64.float_of_bits bits) :: acc) ctx.fconsts []
  in
  let make_frame () =
    let fs = Array.make (Stdlib.max 1 ctx.nf) 0.0 in
    List.iter (fun (k, f) -> fs.(k) <- f) consts;
    { fs; is = Array.make (Stdlib.max 1 ctx.ni) 0; os = Array.make (Stdlib.max 1 ctx.no) V.Vunit }
  in
  let run ?(inputs = []) () =
    let fr = make_frame () in
    List.iter
      (fun (name, v) ->
        match Hashtbl.find_opt ctx.inputs name with
        | Some k -> fr.os.(k) <- v
        | None -> () (* unused input: fine *))
      inputs;
    Hashtbl.iter
      (fun name _ ->
        if not (List.mem_assoc name inputs) then fail "missing input %s" name)
      ctx.inputs;
    root fr
  in
  { run; frame_sizes = (ctx.nf, ctx.ni, ctx.no) }

(** One-shot convenience. *)
let run ?(inputs = []) (e : exp) : V.t = (compile e).run ~inputs ()
