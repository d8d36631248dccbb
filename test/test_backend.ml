(* Tests of the backend: the closure compiler must agree with the
   reference interpreter on every program; GPU kernel extraction must
   classify reductions and access patterns per the paper's rules; the
   textual code generators must carry the IR's structure. *)

open Dmll_ir
open Dmll_interp
open Dmll_backend
open Exp
open Builder

let check = Alcotest.check
let tbool = Alcotest.bool

let value : Value.t Alcotest.testable =
  Alcotest.testable (fun fmt v -> Fmt.string fmt (Value.to_string v)) Value.equal

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* ---------------- closure compiler ---------------- *)

let agree ?(inputs = []) e =
  let expected = Interp.run ~inputs e in
  let got = Closure.run ~inputs e in
  check value "closure backend agrees with interpreter" expected got

let test_closure_scalars () =
  agree (int_ 2 +! (int_ 3 *! int_ 4));
  agree (float_ 1.5 *. (float_ 2.0 +. float_ 0.5));
  agree (if_ (int_ 3 <! int_ 4) (str_ "y") (str_ "n"));
  agree (bind ~ty:Types.Float (float_ 3.0) (fun v -> v *. v));
  agree (Prim (Prim.Strcat, [ str_ "a"; str_ "b" ]))

let test_closure_collect () =
  agree (collect ~size:(int_ 10) (fun i -> i2f i *. float_ 2.0));
  agree (collect ~size:(int_ 10) (fun i -> i *! i));
  agree (collect ~cond:(fun i -> i %! int_ 3 =! int_ 0) ~size:(int_ 10) (fun i -> i));
  agree (collect ~size:(int_ 0) (fun i -> i))

let test_closure_reduce () =
  agree (fsum ~size:(int_ 100) (fun i -> i2f i));
  agree (isum ~cond:(fun i -> i >! int_ 50) ~size:(int_ 100) (fun i -> i));
  (* non-direct reduction function *)
  agree
    (reduce ~size:(int_ 10) ~ty:Types.Float ~init:(float_ 1.0)
       (fun i -> i2f i +. float_ 1.0)
       (fun a b -> (a *. b) /. (a +. b)));
  (* argmin via tuple-typed reduce *)
  let arr = Input ("a", Types.Arr Types.Float, Local) in
  let inputs = [ ("a", Value.of_float_array [| 5.0; 1.0; 3.0 |]) ] in
  agree ~inputs (min_index ~size:(Len arr) (fun i -> Read (arr, i)))

let test_closure_buckets () =
  agree
    (bucket_reduce ~size:(int_ 20) ~ty:Types.Float
       ~key:(fun i -> i %! int_ 4)
       ~init:(float_ 0.0)
       (fun i -> i2f i)
       (fun a b -> a +. b));
  agree
    (bucket_reduce ~size:(int_ 20) ~ty:Types.Int
       ~key:(fun i -> i %! int_ 3)
       ~init:(int_ 0)
       (fun _ -> int_ 1)
       (fun a b -> a +! b));
  agree (bucket_collect ~size:(int_ 12) ~key:(fun i -> i %! int_ 5) (fun i -> i2f i));
  (* vector-valued bucket reduce, as in k-means sums *)
  agree
    (bucket_reduce ~size:(int_ 9) ~ty:(Types.Arr Types.Float)
       ~key:(fun i -> i %! int_ 3)
       ~init:(zero_vec (int_ 4))
       (fun i -> collect ~size:(int_ 4) (fun j -> i2f (i +! j)))
       (fun a b -> vec_fadd a b))

let test_closure_nested () =
  agree
    (collect ~size:(int_ 5) (fun i ->
         fsum ~size:(int_ 8) (fun j -> i2f (i *! j))));
  agree
    (bind ~ty:(Types.Map (Types.Int, Types.Float))
       (bucket_reduce ~size:(int_ 10) ~ty:Types.Float
          ~key:(fun i -> i %! int_ 2)
          ~init:(float_ 0.0)
          (fun i -> i2f i)
          (fun a b -> a +. b))
       (fun m -> MapRead (m, int_ 1, Some (float_ (-1.0))) +. Read (m, int_ 0)))

let test_closure_multi_gen () =
  let idx = Sym.fresh ~name:"i" Types.Int in
  let a = Sym.fresh Types.Float and b = Sym.fresh Types.Float in
  agree
    (Loop
       { size = int_ 7;
         idx;
         gens =
           [ Collect { cond = None; value = Var idx *! int_ 3 };
             Reduce
               { cond = None; value = i2f (Var idx); a; b;
                 rfun = Var a +. Var b; init = float_ 0.0 };
           ];
       })

let test_closure_inputs_structs () =
  let item = Types.Struct ("it", [ ("q", Types.Float); ("t", Types.Int) ]) in
  let items = Input ("items", Types.Arr item, Local) in
  let mk q t = Value.Vstruct [| ("q", Value.Vfloat q); ("t", Value.Vint t) |] in
  let inputs = [ ("items", Value.Varr (Value.Ga [| mk 1.5 0; mk 2.5 1; mk 4.0 0 |])) ] in
  agree ~inputs
    (fsum
       ~cond:(fun i -> Field (Read (items, i), "t") =! int_ 0)
       ~size:(Len items)
       (fun i -> Field (Read (items, i), "q")));
  (* missing input must raise *)
  (match Closure.run (Len items) with
  | exception Closure.Compile_error _ -> ()
  | _ -> Alcotest.fail "expected missing-input failure")

let test_closure_reuse () =
  (* one compilation, several runs with different inputs *)
  let arr = Input ("a", Types.Arr Types.Float, Local) in
  let c = Closure.compile (fsum ~size:(Len arr) (fun i -> Read (arr, i))) in
  let run xs = c.Closure.run ~inputs:[ ("a", Value.of_float_array xs) ] () in
  check value "first run" (Value.Vfloat 6.0) (run [| 1.0; 2.0; 3.0 |]);
  check value "second run" (Value.Vfloat 1.0) (run [| 1.0 |]);
  check value "third run (empty)" (Value.Vfloat 0.0) (run [||])

(* closure backend agrees with the interpreter on random programs *)
let prop_closure_agrees =
  QCheck.Test.make ~count:200 ~name:"closure backend = interpreter"
    Dmll_testgen.Gen_ir.arbitrary_program (fun e ->
      match Interp.run e with
      | exception Interp.Runtime_error _ -> QCheck.assume_fail ()
      | expected -> Value.equal expected (Closure.run e))

let prop_closure_agrees_buckets =
  QCheck.Test.make ~count:200 ~name:"closure backend = interpreter (buckets)"
    Dmll_testgen.Gen_ir.arbitrary_bucket_program (fun e ->
      match Interp.run e with
      | exception Interp.Runtime_error _ -> QCheck.assume_fail ()
      | expected -> Value.equal expected (Closure.run e))

(* the GPU lowering preserves semantics on random programs *)
let prop_gpu_lower_preserves =
  QCheck.Test.make ~count:100 ~name:"Gpu.lower preserves semantics"
    Dmll_testgen.Gen_ir.arbitrary_program (fun e ->
      match Interp.run e with
      | exception Interp.Runtime_error _ -> QCheck.assume_fail ()
      | expected ->
          let lowered, _ = Gpu.lower e in
          Value.approx_equal ~eps:1e-6 expected (Interp.run lowered))

(* and on optimized programs *)
let prop_closure_agrees_optimized =
  QCheck.Test.make ~count:150 ~name:"closure backend = interpreter (optimized)"
    Dmll_testgen.Gen_ir.arbitrary_program (fun e ->
      match Interp.run e with
      | exception Interp.Runtime_error _ -> QCheck.assume_fail ()
      | expected ->
          let opt = (Dmll_opt.Pipeline.optimize e).Dmll_opt.Pipeline.program in
          Value.approx_equal ~eps:1e-6 expected (Closure.run opt))

(* ---------------- float registers ---------------- *)

(* argmin keeps the interpreter's [compare] order: NaN equals itself and
   sorts below every float, and -0.0 ties with 0.0 *)
let test_closure_argmin_nan () =
  let arr = Input ("a", Types.Arr Types.Float, Local) in
  List.iter
    (fun row ->
      let inputs = [ ("a", Value.of_float_array row) ] in
      agree ~inputs (min_index ~size:(Len arr) (fun i -> Read (arr, i)));
      agree ~inputs
        (min_index ~size:(Len arr) (fun i ->
             fsum ~size:(int_ 2) (fun j -> Read (arr, i) *. i2f (j +! int_ 1)))))
    [ [| 1.0; Float.nan; -0.0; 0.0; Float.nan |];
      [| 0.0; -0.0; 2.0 |];
      [| -0.0; 0.0; Float.infinity; Float.nan |];
    ]

(* Minor words one run of [c] allocates, after a warm-up run. *)
let run_words (c : Closure.compiled) inputs =
  ignore (c.Closure.run ~inputs ());
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (c.Closure.run ~inputs ()));
  Float.sub (Gc.minor_words ()) w0

(* The minor words a run at size [4n] allocates beyond a run at size [n].
   When no inner-loop iteration allocates, this is a constant: the
   results grow, the loops do not box. *)
let extra_words ~(program : int -> exp) ~(inputs : int -> (string * Value.t) list) n =
  let words n = run_words (Closure.compile (program n)) (inputs n) in
  Float.sub (words (4 * n)) (words n)

let check_no_alloc ~what ~bound extra =
  if extra >= bound then
    Alcotest.failf "%s: %.0f extra minor words at 4n (bound %.0f)" what extra bound

(* k-means at 2k rows x [cols] columns, k = 4, through the full compiler *)
let km_rows = 2000 and km_k = 4

let kmeans_final cols =
  let p = Dmll_apps.Kmeans.program ~rows:km_rows ~cols ~k:km_k () in
  (Dmll.compile_with Dmll.Config.default p).Dmll.final

let kmeans_inputs cols =
  let d = Dmll_data.Gaussian.generate ~rows:km_rows ~cols ~classes:km_k () in
  Dmll_apps.Kmeans.inputs d ~centroids:(Dmll_data.Gaussian.random_centroids ~k:km_k d)

(* The inner-loop iterations scale with the column count: rows x k x cols
   in the distance reduce, rows x cols in the centroid sums. *)
let test_closure_no_alloc () =
  let sqdiff _ =
    let xs = Input ("xs", Types.Arr Types.Float, Local) in
    fsum ~size:(Len xs) (fun i ->
        bind ~ty:Types.Float (Read (xs, i) -. float_ 0.5) (fun d -> d *. d))
  in
  let sq_inputs n = [ ("xs", Value.of_float_array (Array.init n (fun i -> float_of_int (i mod 7)))) ] in
  check_no_alloc ~what:"let-bound squared difference" ~bound:64.0
    (extra_words ~program:sqdiff ~inputs:sq_inputs 10_000);
  (* the k x cols centroid result grows with cols: a few hundred words *)
  check_no_alloc ~what:"kmeans" ~bound:4096.0
    (extra_words ~program:kmeans_final ~inputs:kmeans_inputs 8)

(* A chunk of kmeans' first loop, as Exec_domains builds it for domains
   and workers: its subscripts read [((ci + lo) * c) + j]. *)
let kmeans_chunk cols =
  match kmeans_final cols with
  | Let (_, Loop l, _) ->
      (Loop l, Dmll_runtime.Exec_domains.chunk_loop l { Dmll_runtime.Chunk.lo = 500; hi = 1500 })
  | e -> Alcotest.failf "kmeans: expected a leading multiloop, got %s" (Pp.to_string e)

let test_closure_chunk_folds () =
  let whole, chunk = kmeans_chunk 8 in
  let inputs = kmeans_inputs 8 in
  check value "chunk = interpreter" (Interp.run ~inputs chunk) (Closure.run ~inputs chunk);
  (* an unfolded read would take a float temporary of its own *)
  let fregs e =
    let f, _, _ = (Closure.compile e).Closure.frame_sizes in
    f
  in
  check Alcotest.int "shifted reads fold like the unshifted loop's" (fregs whole) (fregs chunk);
  check_no_alloc ~what:"kmeans chunk" ~bound:4096.0
    (extra_words ~program:(fun cols -> snd (kmeans_chunk cols)) ~inputs:kmeans_inputs 8)

(* ---------------- GPU kernels ---------------- *)

let xs = Input ("xs", Types.Arr Types.Float, Partitioned)

let test_gpu_scalar_reduce () =
  let e = fsum ~size:(Len xs) (fun i -> Read (xs, i)) in
  match Gpu.kernels_of e with
  | [ k ] ->
      check tbool "scalar reduce" true (k.Gpu.reduce = Gpu.Scalar_reduce);
      check tbool "coalesced" true (k.Gpu.access = Gpu.Coalesced)
  | ks -> Alcotest.failf "expected 1 kernel, got %d" (List.length ks)

let test_gpu_vector_reduce () =
  (* vector-valued reduction: k-means/logreg as written *)
  let cols = int_ 8 in
  let e =
    reduce ~size:(int_ 100) ~ty:(Types.Arr Types.Float) ~init:(zero_vec cols)
      (fun i -> collect ~size:cols (fun j -> Read (xs, (i *! cols) +! j)))
      (fun a b -> vec_fadd a b)
  in
  (match Gpu.kernels_of e with
  | [ k ] ->
      check tbool "vector reduce flagged" true (k.Gpu.reduce = Gpu.Vector_reduce);
      check tbool "row sweep is strided" true (k.Gpu.access = Gpu.Strided)
  | ks -> Alcotest.failf "expected 1 kernel, got %d" (List.length ks));
  (* transposing the input makes the sweep coalesced *)
  match Gpu.kernels_of ~transposed:true e with
  | [ k ] -> check tbool "transposed is coalesced" true (k.Gpu.access = Gpu.Coalesced)
  | _ -> Alcotest.fail "expected 1 kernel"

let test_gpu_lowering_fixes_vector_reduce () =
  (* Row-to-Column turns the vector reduce into scalar reduces *)
  let cols = int_ 8 in
  let e =
    reduce ~size:(int_ 100) ~ty:(Types.Arr Types.Float) ~init:(zero_vec cols)
      (fun i -> collect ~size:cols (fun j -> Read (xs, (i *! cols) +! j)))
      (fun a b -> vec_fadd a b)
  in
  let lowered, fired = Gpu.lower e in
  check tbool "row-to-column fired" true fired;
  check tbool "no vector reduce remains" true
    (List.for_all
       (fun k -> k.Gpu.reduce <> Gpu.Vector_reduce)
       (Gpu.kernels_of lowered));
  (* semantics preserved *)
  let inputs = [ ("xs", Value.of_float_array (Array.init 800 float_of_int)) ] in
  check tbool "lowering preserves semantics" true
    (Value.approx_equal ~eps:1e-6 (Interp.run ~inputs e) (Interp.run ~inputs lowered))

let test_gpu_gather () =
  let perm = Input ("perm", Types.Arr Types.Int, Local) in
  let e = collect ~size:(Len xs) (fun i -> Read (xs, Read (perm, i))) in
  match Gpu.kernels_of e with
  | [ k ] -> check tbool "gather access" true (k.Gpu.access = Gpu.Gather)
  | _ -> Alcotest.fail "expected 1 kernel"

(* ---------------- textual codegens ---------------- *)

let sample_program =
  bind ~ty:(Types.Arr Types.Float)
    (map_arr xs (fun v -> exp_ v))
    (fun m ->
      bucket_reduce ~size:(len m) ~ty:Types.Float
        ~key:(fun i -> f2i (read m i) %! int_ 4)
        ~init:(float_ 0.0)
        (fun i -> read m i)
        (fun a b -> a +. b))

let test_codegen_c () =
  let src = Codegen_c.emit sample_program in
  List.iter
    (fun needle ->
      check tbool (Printf.sprintf "C++ contains %S" needle) true (contains src needle))
    [ "#include"; "std::vector<double>"; "for (int64_t"; "bucket_map";
      "dmll_program"; "std::exp"; "inputs.xs" ]

let test_codegen_cuda () =
  let e = fsum ~size:(Len xs) (fun i -> Read (xs, i) *. Read (xs, i)) in
  let src = Codegen_cuda.emit e in
  List.iter
    (fun needle ->
      check tbool (Printf.sprintf "CUDA contains %S" needle) true (contains src needle))
    [ "__global__"; "__shared__"; "blockIdx.x"; "__syncthreads"; "<<<blocks, 256>>>" ];
  (* a vector reduce draws the shared-memory warning *)
  let cols = int_ 4 in
  let v =
    reduce ~size:(int_ 10) ~ty:(Types.Arr Types.Float) ~init:(zero_vec cols)
      (fun i -> collect ~size:cols (fun j -> Read (xs, (i *! cols) +! j)))
      (fun a b -> vec_fadd a b)
  in
  check tbool "vector reduce warned" true
    (contains (Codegen_cuda.emit v) "do not fit in")

let test_codegen_scala () =
  let src = Codegen_scala.emit sample_program in
  List.iter
    (fun needle ->
      check tbool (Printf.sprintf "Scala contains %S" needle) true (contains src needle))
    [ "object DmllProgram"; "BucketReduce"; "Collect"; "math.exp";
      "inputs.partitioned" ]

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "backend"
    [ ( "closure",
        [ Alcotest.test_case "scalars" `Quick test_closure_scalars;
          Alcotest.test_case "collect" `Quick test_closure_collect;
          Alcotest.test_case "reduce" `Quick test_closure_reduce;
          Alcotest.test_case "buckets" `Quick test_closure_buckets;
          Alcotest.test_case "nested" `Quick test_closure_nested;
          Alcotest.test_case "multi-generator" `Quick test_closure_multi_gen;
          Alcotest.test_case "inputs/structs" `Quick test_closure_inputs_structs;
          Alcotest.test_case "compile-once run-many" `Quick test_closure_reuse;
        ] );
      ( "registers",
        [ Alcotest.test_case "argmin keeps compare order" `Quick test_closure_argmin_nan;
          Alcotest.test_case "inner loops do not allocate" `Quick test_closure_no_alloc;
          Alcotest.test_case "chunked reads fold" `Quick test_closure_chunk_folds;
        ] );
      ( "gpu",
        [ Alcotest.test_case "scalar reduce" `Quick test_gpu_scalar_reduce;
          Alcotest.test_case "vector reduce" `Quick test_gpu_vector_reduce;
          Alcotest.test_case "lowering" `Quick test_gpu_lowering_fixes_vector_reduce;
          Alcotest.test_case "gather" `Quick test_gpu_gather;
        ] );
      ( "codegen",
        [ Alcotest.test_case "c++" `Quick test_codegen_c;
          Alcotest.test_case "cuda" `Quick test_codegen_cuda;
          Alcotest.test_case "scala" `Quick test_codegen_scala;
        ] );
      ( "properties",
        [ qt prop_closure_agrees; qt prop_closure_agrees_buckets;
          qt prop_closure_agrees_optimized; qt prop_gpu_lower_preserves ] );
    ]
