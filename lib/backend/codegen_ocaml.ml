(** Native backend, stage 1: emit a Dynlink kernel plugin from optimized
    DMLL IR.

    This plays the role of Delite's C++ code generator played in the paper
    — and unlike {!Codegen_c} it is actually {e compiled and executed}
    (by {!Native}, via [ocamlopt -shared] and Dynlink), giving Table 2 a
    genuinely native DMLL column.  Emission is {e typed}: IR [Float]/[Int]
    arrays become OCaml [float array]/[int array], tuples become OCaml
    tuples, multiloops become [for] loops with unboxed accumulators — the
    code a careful human would write.

    The plugin works on the host's {!Dmll_interp.Value.t} directly: its
    staged kernel unwraps the named inputs once, and the thunk it returns
    runs the body and wraps the result (the seam is {!Kernel_link}). *)

open Dmll_ir
open Exp

exception Unsupported of string

let unsupported fmt = Fmt.kstr (fun s -> raise (Unsupported s)) fmt

(* ------------------------------------------------------------------ *)
(* Types                                                               *)
(* ------------------------------------------------------------------ *)

(* The OCaml type realizing an IR type.  Structs stay boxed host values
   (they only survive in un-optimized programs). *)
let rec oty : Types.ty -> string = function
  | Types.Unit -> "unit"
  | Types.Bool -> "bool"
  | Types.Int -> "int"
  | Types.Float -> "float"
  | Types.Str -> "string"
  | Types.Struct _ -> "V.t"
  | Types.Arr t -> Printf.sprintf "(%s) array" (oty t)
  | Types.Tup ts -> "(" ^ String.concat " * " (List.map oty ts) ^ ")"
  | Types.Map (k, v) -> Printf.sprintf "((%s), (%s)) bucket" (oty k) (oty v)

(* A dummy OCaml value of the type, for array initialization. *)
let rec dummy : Types.ty -> string = function
  | Types.Unit -> "()"
  | Types.Bool -> "false"
  | Types.Int -> "0"
  | Types.Float -> "0.0"
  | Types.Str -> "\"\""
  | Types.Struct _ -> "V.Vunit"
  | Types.Arr _ -> "[||]"
  | Types.Tup ts -> "(" ^ String.concat ", " (List.map dummy ts) ^ ")"
  | Types.Map (k, v) ->
      Printf.sprintf "((empty_bucket ()) : ((%s), (%s)) bucket)" (oty k) (oty v)

(* Unwrap a host value into the typed representation (for inputs). *)
let rec unwrap (ty : Types.ty) : string =
  match ty with
  | Types.Unit -> "(fun _ -> ())"
  | Types.Bool -> "(function V.Vbool b -> b | _ -> failwith \"bool\")"
  | Types.Int -> "(function V.Vint i -> i | _ -> failwith \"int\")"
  | Types.Float -> "(function V.Vfloat f -> f | _ -> failwith \"float\")"
  | Types.Str -> "(function V.Vstr s -> s | _ -> failwith \"str\")"
  | Types.Struct _ -> "(fun v -> v)"
  | Types.Arr Types.Float ->
      "(function V.Varr (V.Fa a) -> a | V.Varr (V.Ga [||]) -> [||] | _ -> failwith \"farr\")"
  | Types.Arr Types.Int ->
      "(function V.Varr (V.Ia a) -> a | V.Varr (V.Ga [||]) -> [||] | _ -> failwith \"iarr\")"
  | Types.Arr t ->
      Printf.sprintf
        "(function V.Varr (V.Ga a) -> Array.map %s a | V.Varr (V.Fa a) -> Array.map (fun f -> %s (V.Vfloat f)) a | V.Varr (V.Ia a) -> Array.map (fun i -> %s (V.Vint i)) a | _ -> failwith \"arr\")"
        (unwrap t) (unwrap t) (unwrap t)
  | Types.Tup ts ->
      let binds =
        List.mapi (fun i t -> Printf.sprintf "%s vs.(%d)" (unwrap t) i) ts
      in
      Printf.sprintf "(function V.Vtup vs -> (%s) | _ -> failwith \"tup\")"
        (String.concat ", " binds)
  | Types.Map (k, v) ->
      Printf.sprintf
        "(function V.Vmap m -> make_bucket (Array.map %s m.V.mkeys) (Array.map %s m.V.mvals) | _ -> failwith \"map\")"
        (unwrap k) (unwrap v)

(* Wrap the typed representation back into a host value (for the result). *)
let rec wrap (ty : Types.ty) : string =
  match ty with
  | Types.Unit -> "(fun () -> V.Vunit)"
  | Types.Bool -> "(fun b -> V.Vbool b)"
  | Types.Int -> "(fun i -> V.Vint i)"
  | Types.Float -> "(fun f -> V.Vfloat f)"
  | Types.Str -> "(fun s -> V.Vstr s)"
  | Types.Struct _ -> "(fun v -> v)"
  | Types.Arr Types.Float -> "(fun a -> V.Varr (V.Fa a))"
  | Types.Arr Types.Int -> "(fun a -> V.Varr (V.Ia a))"
  | Types.Arr t -> Printf.sprintf "(fun a -> V.Varr (V.Ga (Array.map %s a)))" (wrap t)
  | Types.Tup ts ->
      let names = List.mapi (fun i _ -> Printf.sprintf "w%d" i) ts in
      Printf.sprintf "(fun (%s) -> V.Vtup [| %s |])" (String.concat ", " names)
        (String.concat "; "
           (List.map2 (fun n t -> Printf.sprintf "%s %s" (wrap t) n) names ts))
  | Types.Map (k, v) ->
      Printf.sprintf
        "(fun b -> V.Vmap { V.mkeys = Array.map %s b.bkeys; mvals = Array.map %s b.bvals })" (wrap k)
        (wrap v)

(* ------------------------------------------------------------------ *)
(* Emitter                                                             *)
(* ------------------------------------------------------------------ *)

type em = { mutable buf : Buffer.t; mutable indent : int; mutable tmp : int }

let new_em () = { buf = Buffer.create 4096; indent = 1; tmp = 0 }

let line em fmt =
  Printf.ksprintf
    (fun s ->
      Buffer.add_string em.buf (String.make (2 * em.indent) ' ');
      Buffer.add_string em.buf s;
      Buffer.add_char em.buf '\n')
    fmt

let fresh em p =
  em.tmp <- em.tmp + 1;
  Printf.sprintf "%s_%d" p em.tmp

let sym_name s =
  (* IR names may be capitalized (the rules bind "H", "R"): lowercase them
     so they are OCaml value identifiers *)
  Printf.sprintf "%s_%d" (String.uncapitalize_ascii (Sym.name s)) (Sym.id s)

let mangle_input name =
  "in_"
  ^ String.map (fun c -> if c = '.' || c = '-' then '_' else c) name

let ty_of_exp e =
  Typecheck.infer
    (Sym.Set.fold
       (fun s acc -> Sym.Map.add s (Sym.ty s) acc)
       (free_vars e) Sym.Map.empty)
    e

let fconst f =
  if Float.is_integer f && Float.abs f < 1e15 then
    (* parenthesize negatives (and -0.0): a bare leading [-] would parse
       as subtraction in argument position *)
    let s = Printf.sprintf "%.1f" f in
    if s.[0] = '-' then "(" ^ s ^ ")" else s
  else if Float.is_nan f then "Float.nan"
  else if f = Float.infinity then "Float.infinity"
  else if f = Float.neg_infinity then "Float.neg_infinity"
  else Printf.sprintf "(Int64.float_of_bits (%LdL))" (Int64.bits_of_float f)

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let prim_ocaml (p : Prim.t) (ty_a : Types.ty) (args : string list) : string =
  let a () = List.nth args 0 and b () = List.nth args 1 in
  let cmp op =
    (* restrict the polymorphic comparison to the operand type so ocamlopt
       specializes it; floats go through [compare] so that NaN compares the
       way the interpreter's does (equal to itself, below every float) *)
    match ty_a with
    | Types.Int | Types.Bool | Types.Str ->
        Printf.sprintf "((%s : %s) %s %s)" (a ()) (oty ty_a) op (b ())
    | Types.Float -> Printf.sprintf "(compare (%s : float) %s %s 0)" (a ()) (b ()) op
    | _ -> Printf.sprintf "(compare %s %s %s 0)" (a ()) (b ()) op
  in
  match p with
  | Prim.Add -> Printf.sprintf "(%s + %s)" (a ()) (b ())
  | Sub -> Printf.sprintf "(%s - %s)" (a ()) (b ())
  | Mul -> Printf.sprintf "(%s * %s)" (a ()) (b ())
  | Div -> Printf.sprintf "(%s / %s)" (a ()) (b ())
  | Mod -> Printf.sprintf "(%s mod %s)" (a ()) (b ())
  | Neg -> Printf.sprintf "(- %s)" (a ())
  | Min -> Printf.sprintf "(min (%s : int) %s)" (a ()) (b ())
  | Max -> Printf.sprintf "(max (%s : int) %s)" (a ()) (b ())
  | Fadd -> Printf.sprintf "(%s +. %s)" (a ()) (b ())
  | Fsub -> Printf.sprintf "(%s -. %s)" (a ()) (b ())
  | Fmul -> Printf.sprintf "(%s *. %s)" (a ()) (b ())
  | Fdiv -> Printf.sprintf "(%s /. %s)" (a ()) (b ())
  | Fneg -> Printf.sprintf "(-. %s)" (a ())
  | Fmin -> Printf.sprintf "(Float.min %s %s)" (a ()) (b ())
  | Fmax -> Printf.sprintf "(Float.max %s %s)" (a ()) (b ())
  | Sqrt -> Printf.sprintf "(sqrt %s)" (a ())
  | Exp -> Printf.sprintf "(exp %s)" (a ())
  | Log -> Printf.sprintf "(log %s)" (a ())
  | Fabs -> Printf.sprintf "(Float.abs %s)" (a ())
  | Pow -> Printf.sprintf "(%s ** %s)" (a ()) (b ())
  | I2f -> Printf.sprintf "(float_of_int %s)" (a ())
  | F2i -> Printf.sprintf "(int_of_float %s)" (a ())
  | Eq -> cmp "="
  | Ne -> cmp "<>"
  | Lt -> cmp "<"
  | Le -> cmp "<="
  | Gt -> cmp ">"
  | Ge -> cmp ">="
  | And -> Printf.sprintf "(%s && %s)" (a ()) (b ())
  | Or -> Printf.sprintf "(%s || %s)" (a ()) (b ())
  | Not -> Printf.sprintf "(not %s)" (a ())
  | Strcat -> Printf.sprintf "(%s ^ %s)" (a ()) (b ())
  | Strlen -> Printf.sprintf "(String.length %s)" (a ())
  | Strget -> Printf.sprintf "(Char.code %s.[%s])" (a ()) (b ())

let rec emit em (e : exp) : string =
  match e with
  | Const Cunit -> "()"
  | Const (Cbool b) -> string_of_bool b
  | Const (Cint i) -> Printf.sprintf "(%d)" i
  | Const (Cfloat f) -> fconst f
  | Const (Cstr s) -> Printf.sprintf "%S" s
  | Var s -> sym_name s
  | Input (name, _, _) -> mangle_input name
  | Prim (p, args) ->
      let ty_a = match args with a :: _ -> ty_of_exp a | [] -> Types.Unit in
      prim_ocaml p ty_a (List.map (emit em) args)
  | If (c, t, f) ->
      if loop_free t && loop_free f then
        Printf.sprintf "(if %s then %s else %s)" (emit em c) (emit em t) (emit em f)
      else
        (* branches with loops: statement blocks, so a branch's loops run
           only when it is taken *)
        Printf.sprintf "(if %s then %s else %s)" (emit em c) (emit_block em t)
          (emit_block em f)
  | Let (s, bound, body) ->
      let rv = emit em bound in
      line em "let %s : %s = %s in" (sym_name s) (oty (Sym.ty s)) rv;
      emit em body
  | Tuple es -> "(" ^ String.concat ", " (List.map (emit em) es) ^ ")"
  | Proj (a, i) -> (
      match ty_of_exp a with
      | Types.Tup ts ->
          let av = emit em a in
          let names = List.mapi (fun j _ -> if j = i then "p" else "_") ts in
          Printf.sprintf "(let (%s) = %s in p)" (String.concat ", " names) av
      | t -> unsupported "projection from %s" (Types.to_string t))
  | Record _ -> unsupported "struct construction (run AoS->SoA first)"
  | Field (a, n) ->
      (* structs are boxed values in the native backend: project and unwrap
         to the field's typed representation *)
      Printf.sprintf "(%s (vfield %s %S))" (unwrap (ty_of_exp e)) (emit em a) n
  | Len a -> (
      match ty_of_exp a with
      | Types.Arr _ -> Printf.sprintf "(Array.length %s)" (emit em a)
      | Types.Map _ -> Printf.sprintf "(Array.length %s.bkeys)" (emit em a)
      | t -> unsupported "len of %s" (Types.to_string t))
  | Read (a, i) -> (
      match ty_of_exp a with
      | Types.Arr _ -> Printf.sprintf "%s.(%s)" (emit em a) (emit em i)
      | Types.Map _ -> Printf.sprintf "%s.bvals.(%s)" (emit em a) (emit em i)
      | t -> unsupported "read of %s" (Types.to_string t))
  | KeyAt (m, i) -> Printf.sprintf "%s.bkeys.(%s)" (emit em m) (emit em i)
  | MapRead (m, k, d) -> (
      let mv = emit em m and kv = emit em k in
      match d with
      | None ->
          Printf.sprintf "%s.bvals.(Hashtbl.find %s.bidx %s)" mv mv kv
      | Some d ->
          Printf.sprintf
            "(match Hashtbl.find_opt %s.bidx %s with Some bi_ -> %s.bvals.(bi_) | None -> %s)"
            mv kv mv (emit em d))
  | Extern { ename; _ } -> unsupported "extern %s in native backend" ename
  | Loop l -> emit_loop em l

(* ------------------------------------------------------------------ *)
(* Loops                                                               *)
(* ------------------------------------------------------------------ *)

and emit_block em (e : exp) : string =
  let saved = em.buf in
  let b = Buffer.create 256 in
  em.buf <- b;
  let r = emit em e in
  em.buf <- saved;
  Printf.sprintf "(\n%s%s  %s)" (Buffer.contents b)
    (String.make (2 * em.indent) ' ')
    r

and emit_loop em (l : loop) : string =
  let n = fresh em "n" in
  line em "let %s = %s in" n (emit em l.size);
  let idx = sym_name l.idx in
  (* registries: shared key/cond probe per (cond, key) class *)
  let registries : (exp option * exp * string) list ref = ref [] in
  let opt_alpha a b =
    match (a, b) with
    | None, None -> true
    | Some x, Some y -> alpha_equal x y
    | _ -> false
  in
  let registry_for g =
    match gen_key g with
    | None -> None
    | Some key -> (
        let cond = gen_cond g in
        match
          List.find_opt (fun (c, k, _) -> opt_alpha c cond && alpha_equal k key)
            !registries
        with
        | Some (_, _, r) -> Some r
        | None ->
            let r = fresh em "reg" in
            let kty = ty_of_exp key in
            line em "let %s_tbl : (%s, int) Hashtbl.t = Hashtbl.create 64 in" r (oty kty);
            line em "let %s_keys : (%s) buf = new_buf %s in" r (oty kty) (dummy kty);
            registries := (cond, key, r) :: !registries;
            Some r)
  in
  (* declare per-generator accumulators, collect body/finish emitters *)
  let gens =
    List.map
      (fun g ->
        let reg = registry_for g in
        prepare_gen em ~n ~reg g)
      l.gens
  in
  (* the loop *)
  line em "for %s = 0 to %s - 1 do" idx n;
  em.indent <- em.indent + 1;
  (* per-iteration registry slots *)
  List.iter
    (fun (cond, key, r) ->
      let slot_rhs =
        let key_code em = emit em key in
        let probe =
          Printf.sprintf
            "(let k_ = %s in match Hashtbl.find_opt %s_tbl k_ with Some s_ -> s_ | None -> (let s_ = %s_keys.bn in Hashtbl.add %s_tbl k_ s_; buf_push %s_keys k_; s_))"
            (key_code em) r r r r
        in
        match cond with
        | None -> probe
        | Some c -> Printf.sprintf "(if %s then %s else (-1))" (emit em c) probe
      in
      line em "let %s_slot = %s in" r slot_rhs)
    (List.rev !registries);
  List.iter (fun (step, _) -> step ()) gens;
  em.indent <- em.indent - 1;
  line em "done;";
  let results = List.map (fun (_, fin) -> fin ()) gens in
  match results with [ r ] -> r | rs -> "(" ^ String.concat ", " rs ^ ")"

(* Returns (emit_step, emit_finish): step emits the per-iteration
   statements (at loop indent), finish returns the result expression. *)
and prepare_gen em ~(n : string) ~(reg : string option) (g : gen) :
    (unit -> unit) * (unit -> string) =
  match g with
  | Collect { cond = None; value } ->
      let vty = ty_of_exp value in
      let out = fresh em "out" in
      line em "let %s : (%s) array = Array.make %s %s in" out (oty vty) n (dummy vty);
      let idx_hole = fresh em "ci" in
      line em "let %s = ref 0 in" idx_hole;
      ( (fun () ->
          let v = emit em value in
          line em "%s.(!%s) <- %s; incr %s;" out idx_hole v idx_hole),
        fun () -> out )
  | Collect { cond = Some c; value } ->
      let vty = ty_of_exp value in
      let out = fresh em "out" in
      line em "let %s : (%s) buf = new_buf %s in" out (oty vty) (dummy vty);
      ( (fun () ->
          let cv = emit em c in
          line em "if %s then begin" cv;
          em.indent <- em.indent + 1;
          let v = emit em value in
          line em "buf_push %s %s" out v;
          em.indent <- em.indent - 1;
          line em "end;"),
        fun () -> Printf.sprintf "(buf_contents %s)" out )
  | Reduce { cond; value; a; b; rfun; init } -> (
      let vty = ty_of_exp value in
      match vty with
      | Types.Float ->
          let acc = fresh em "acc" in
          line em "let %s = [| %s |] in" acc (emit em init);
          ( (fun () ->
              let guard () =
                match cond with
                | None -> ()
                | Some c -> line em "if %s then begin" (emit em c)
              in
              guard ();
              if cond <> None then em.indent <- em.indent + 1;
              let v = emit em value in
              (match rfun with
              | Prim (Prim.Fadd, [ Var x; Var y ])
                when Sym.equal x a && Sym.equal y b ->
                  line em "%s.(0) <- %s.(0) +. %s;" acc acc v
              | _ ->
                  line em "let %s = %s.(0) in" (sym_name a) acc;
                  line em "let %s = %s in" (sym_name b) v;
                  let rv = emit em rfun in
                  line em "%s.(0) <- %s;" acc rv);
              if cond <> None then begin
                em.indent <- em.indent - 1;
                line em "end;"
              end),
            fun () -> Printf.sprintf "%s.(0)" acc )
      | _ ->
          (* generic (int / tuple / vector) accumulator in a ref; an
             elementwise float-add vector accumulates in place, so it
             starts from a copy of its init (which may be an input) *)
          let in_place =
            match vty with
            | Types.Arr Types.Float -> vec_fadd_shape ~a ~b rfun
            | _ -> false
          in
          let acc = fresh em "acc" in
          line em "let %s : (%s) ref = ref (%s) in" acc (oty vty)
            (if in_place then Printf.sprintf "Array.copy %s" (emit em init)
             else emit em init);
          ( (fun () ->
              (match cond with
              | None -> ()
              | Some c -> (
                  line em "if %s then begin" (emit em c);
                  em.indent <- em.indent + 1));
              (* in-place vector accumulate when the reduction is
                 elementwise float add *)
              (match (vty, vec_fadd_shape ~a ~b rfun, strip_lets value) with
              | Types.Arr Types.Float, true,
                (lets, Loop { size = s2; idx = j2;
                              gens = [ Collect { cond = None; value = ev } ] })
                when Types.equal (ty_of_exp ev) Types.Float ->
                  List.iter
                    (fun (s, bound) ->
                      let rv = emit em bound in
                      line em "let %s : %s = %s in" (sym_name s) (oty (Sym.ty s)) rv)
                    lets;
                  let n2 = fresh em "n2" in
                  line em "let %s = %s in" n2 (emit em s2);
                  line em "let acc_ = !%s in" acc;
                  line em "for %s = 0 to %s - 1 do" (sym_name j2) n2;
                  em.indent <- em.indent + 1;
                  let evv = emit em ev in
                  line em "acc_.(%s) <- acc_.(%s) +. %s" (sym_name j2) (sym_name j2) evv;
                  em.indent <- em.indent - 1;
                  line em "done;"
              | _ ->
                  let v = emit em value in
                  line em "let %s = !%s in" (sym_name a) acc;
                  line em "let %s = %s in" (sym_name b) v;
                  let rv = emit em rfun in
                  line em "%s := %s;" acc rv);
              match cond with
              | None -> ()
              | Some _ ->
                  em.indent <- em.indent - 1;
                  line em "end;"),
            fun () -> Printf.sprintf "(!%s)" acc ))
  | BucketCollect { value; _ } ->
      let r = match reg with Some r -> r | None -> assert false in
      let vty = ty_of_exp value in
      let vals = fresh em "bvals" in
      line em "let %s : (%s) list buf = new_buf [] in" vals (oty vty);
      ( (fun () ->
          line em "if %s_slot >= 0 then begin" r;
          em.indent <- em.indent + 1;
          line em "while %s.bn <= %s_slot do buf_push %s [] done;" vals r vals;
          let v = emit em value in
          line em "%s.ba.(%s_slot) <- %s :: %s.ba.(%s_slot)" vals r v vals r;
          em.indent <- em.indent - 1;
          line em "end;"),
        fun () ->
          Printf.sprintf
            "(make_bucket (buf_contents %s_keys) (Array.init %s_keys.bn (fun i_ -> Array.of_list (List.rev (if i_ < %s.bn then %s.ba.(i_) else [])))))"
            r r vals vals )
  | BucketReduce { value; a; b; rfun; init; _ } -> (
      let r = match reg with Some r -> r | None -> assert false in
      let vty = ty_of_exp value in
      match (vty, vec_fadd_shape ~a ~b rfun, strip_lets value) with
      | Types.Arr Types.Float, true,
        (lets, Loop { size = s2; idx = j2;
                      gens = [ Collect { cond = None; value = ev } ] })
        when Types.equal (ty_of_exp ev) Types.Float ->
          (* in-place per-bucket vector accumulation; init is evaluated once
             (Figure 2 semantics) and copied per new bucket *)
          let accs = fresh em "vaccs" in
          let init_n = fresh em "binit" in
          line em "let %s : float array = %s in" init_n (emit em init);
          line em "let %s : float array buf = new_buf [||] in" accs;
          ( (fun () ->
              line em "if %s_slot >= 0 then begin" r;
              em.indent <- em.indent + 1;
              line em "while %s.bn <= %s_slot do buf_push %s (Array.copy %s) done;"
                accs r accs init_n;
              List.iter
                (fun (s, bound) ->
                  let rv = emit em bound in
                  line em "let %s : %s = %s in" (sym_name s) (oty (Sym.ty s)) rv)
                lets;
              let n2 = fresh em "n2" in
              line em "let %s = %s in" n2 (emit em s2);
              line em "let acc_ = %s.ba.(%s_slot) in" accs r;
              line em "for %s = 0 to %s - 1 do" (sym_name j2) n2;
              em.indent <- em.indent + 1;
              let evv = emit em ev in
              line em "acc_.(%s) <- acc_.(%s) +. %s" (sym_name j2) (sym_name j2) evv;
              em.indent <- em.indent - 1;
              line em "done";
              em.indent <- em.indent - 1;
              line em "end;"),
            fun () ->
              Printf.sprintf
                "(make_bucket (buf_contents %s_keys) (Array.map Array.copy (buf_contents %s)))"
                r accs )
      | _ ->
          let accs = fresh em "accs" in
          let init_n = fresh em "binit" in
          line em "let %s : %s = %s in" init_n (oty vty) (emit em init);
          line em "let %s : (%s) buf = new_buf %s in" accs (oty vty) (dummy vty);
          ( (fun () ->
              line em "if %s_slot >= 0 then begin" r;
              em.indent <- em.indent + 1;
              line em "while %s.bn <= %s_slot do buf_push %s %s done;" accs r accs
                init_n;
              let v = emit em value in
              (match rfun with
              | Prim (Prim.Fadd, [ Var x; Var y ]) when Sym.equal x a && Sym.equal y b
                ->
                  line em "%s.ba.(%s_slot) <- %s.ba.(%s_slot) +. %s" accs r accs r v
              | Prim (Prim.Add, [ Var x; Var y ]) when Sym.equal x a && Sym.equal y b
                ->
                  line em "%s.ba.(%s_slot) <- %s.ba.(%s_slot) + %s" accs r accs r v
              | _ ->
                  line em "let %s = %s.ba.(%s_slot) in" (sym_name a) accs r;
                  line em "let %s = %s in" (sym_name b) v;
                  let rv = emit em rfun in
                  line em "%s.ba.(%s_slot) <- %s" accs r rv);
              em.indent <- em.indent - 1;
              line em "end;"),
            fun () ->
              Printf.sprintf "(make_bucket (buf_contents %s_keys) (buf_contents %s))" r
                accs ))

and vec_fadd_shape ~a ~b rfun =
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

and strip_lets e =
  match e with
  | Let (s, bound, body) ->
      let lets, res = strip_lets body in
      ((s, bound) :: lets, res)
  | _ -> ([], e)

(* ------------------------------------------------------------------ *)
(* Program assembly                                                    *)
(* ------------------------------------------------------------------ *)

(* Runtime support of the kernel plugin: host-value access and the
   bucket / buf helpers.  No I/O and no top-level mutable state. *)
let runtime_prelude =
  {|(* Generated by the DMLL native (OCaml) backend. Do not edit. *)
module V = Dmll_interp.Value

let vfield v name =
  match v with
  | V.Vstruct fs ->
      let rec go i =
        if i >= Array.length fs then failwith ("no field " ^ name)
        else
          let n, x = fs.(i) in
          if n = name then x else go (i + 1)
      in
      go 0
  | _ -> failwith "vfield"

(* buckets: first-seen-keyed maps with a hash index *)
type ('k, 'v) bucket = { bkeys : 'k array; bvals : 'v array; bidx : ('k, int) Hashtbl.t }

let make_bucket (keys : 'k array) (vals : 'v array) : ('k, 'v) bucket =
  let idx = Hashtbl.create (max 16 (Array.length keys)) in
  Array.iteri (fun i k -> Hashtbl.replace idx k i) keys;
  { bkeys = keys; bvals = vals; bidx = idx }

let empty_bucket () = { bkeys = [||]; bvals = [||]; bidx = Hashtbl.create 1 }

(* growable arrays *)
type 'a buf = { mutable ba : 'a array; mutable bn : int; bdummy : 'a }

let new_buf d = { ba = Array.make 16 d; bn = 0; bdummy = d }

let buf_push b x =
  if b.bn = Array.length b.ba then begin
    let a' = Array.make (2 * b.bn) b.bdummy in
    Array.blit b.ba 0 a' 0 b.bn;
    b.ba <- a'
  end;
  b.ba.(b.bn) <- x;
  b.bn <- b.bn + 1

let buf_contents b = Array.sub b.ba 0 b.bn
|}

(* The named inputs [e] reads, deduplicated. *)
let inputs_of (e : exp) : (string * Types.ty) list =
  let inputs = Hashtbl.create 8 in
  let order = ref [] in
  ignore
    (fold
       (fun () n ->
         match n with
         | Input (name, t, _) ->
             if not (Hashtbl.mem inputs name) then order := name :: !order;
             Hashtbl.replace inputs name t
         | _ -> ())
       () e);
  List.rev_map (fun name -> (name, Hashtbl.find inputs name)) !order

(** Emit a Dynlink kernel plugin for [e] (DESIGN.md §17): a staged
    kernel whose module initializer hands it to the host through
    [Dmll_backend.Kernel_link.register] under [key].  Applying the
    kernel to the host's inputs unwraps each one it reads, once; the
    thunk it returns runs the typed program body and wraps the result.
    No I/O and no timing — the host owns both. *)
let emit_kernel ~(key : string) (e : exp) : string =
  let ty = ty_of_exp e in
  let em = new_em () in
  em.indent <- 2;
  let result = emit em e in
  let body = Buffer.contents em.buf in
  let input_binds =
    List.map
      (fun (name, t) ->
        Printf.sprintf "  let %s : %s = %s (find_input %S) in\n"
          (mangle_input name) (oty t) (unwrap t) name)
      (inputs_of e)
  in
  String.concat ""
    ([ runtime_prelude;
       "\nlet kernel (inputs_ : (string * V.t) list) : unit -> V.t =\n";
       "  let find_input name =\n";
       "    try List.assoc name inputs_\n";
       "    with Not_found -> failwith (\"missing input \" ^ name)\n";
       "  in\n";
     ]
    @ input_binds
    @ [ "  fun () ->\n";
        body;
        Printf.sprintf "    %s (%s : %s)\n" (wrap ty) result (oty ty);
        Printf.sprintf "\nlet () = Dmll_backend.Kernel_link.register ~key:%S kernel\n"
          key;
      ])
