(* Ablation study: what each optimization group is worth, measured for
   real (native backend, ocamlopt-compiled generated code, timed in
   process as Table 2's native column is, each value gated against the
   closure backend's).

   Variants per application:
     all        — the full pipeline (what Dmll.compile_with produces)
     -nested    — without the Figure-3 nested pattern rules
     -fusion    — additionally without pipeline/horizontal fusion
     -datastruct— additionally without AoS->SoA / struct unwrapping / DFE
     none       — simplification only

   This quantifies the paper's claim that "making parallel patterns
   compose efficiently is often the single most important optimization
   required" (§3.1), and DESIGN.md's per-pass design choices. *)

module V = Dmll_interp.Value
module T = Dmll_util.Table
module Opt = Dmll_opt

type variant = { vname : string; optimize : Dmll_ir.Exp.exp -> Dmll_ir.Exp.exp }

(* a pipeline fixpoint over a chosen rule set, optionally with input-SoA *)
let pipeline ?(input_soa = true) rules e =
  let trace = Opt.Rewrite.new_trace () in
  let rec go i e =
    if i >= 12 then e
    else
      let before = List.length trace.Opt.Rewrite.applied in
      let e = Opt.Rewrite.fixpoint rules trace e in
      let e = if input_soa then fst (Opt.Soa.soa_inputs ~trace e) else e in
      if List.length trace.Opt.Rewrite.applied = before then e else go (i + 1) e
  in
  go 0 e

let variants : variant list =
  [ { vname = "all";
      optimize = (fun e -> (Dmll.compile_with Dmll.Config.default e).Dmll.final);
    };
    { vname = "-nested";
      optimize = (fun e -> (Opt.Pipeline.optimize e).Opt.Pipeline.program);
    };
    { vname = "-fusion";
      optimize =
        pipeline (Opt.Simplify.rules @ Opt.Cse.rules @ Opt.Soa.rules @ Opt.Motion.rules);
    };
    { vname = "-datastruct";
      optimize =
        pipeline ~input_soa:false (Opt.Simplify.rules @ Opt.Cse.rules @ Opt.Motion.rules);
    };
    { vname = "none"; optimize = pipeline ~input_soa:false Opt.Simplify.rules };
  ]

let measure_variant ~name ~(reference : V.t) ~(inputs : (string * V.t) list)
    (program : Dmll_ir.Exp.exp) (v : variant) : float option =
  match Table2.native_seconds ~runs:3 ~reference ~inputs (v.optimize program) with
  | Some s -> Some s
  | None ->
      Printf.eprintf "ablation: native result mismatch for %s (%s)\n" name v.vname;
      None
  | exception
      (Dmll_backend.Native.Native_error _ | Dmll_backend.Codegen_ocaml.Unsupported _)
    ->
      None

let run () =
  let ml = Dmll_data.Gaussian.generate ~rows:10_000 ~cols:16 ~classes:8 () in
  let cents = Dmll_data.Gaussian.random_centroids ~k:8 ml in
  let q1 = Dmll_data.Tpch.generate ~rows:20_000 () in
  let apps =
    [ ( "k-means",
        Dmll_apps.Kmeans.program ~rows:10_000 ~cols:16 ~k:8 (),
        Dmll_apps.Kmeans.inputs ml ~centroids:cents );
      ( "LogReg",
        Dmll_apps.Logreg.program ~rows:10_000 ~cols:16 ~alpha:0.01 (),
        Dmll_apps.Logreg.inputs ml ~theta:(Array.make 16 0.05) );
      ( "TPC-H Q1",
        Dmll_apps.Tpch_q1.program (),
        Dmll_apps.Tpch_q1.aos_inputs q1 @ Dmll_apps.Tpch_q1.soa_inputs q1 );
    ]
  in
  let tbl =
    T.create ~title:"Ablation: slowdown vs the full pipeline (native backend, real time)"
      ~header:("App" :: List.map (fun v -> v.vname) variants)
      ~aligns:(T.Left :: List.map (fun _ -> T.Right) variants)
      ()
  in
  List.iter
    (fun (name, program, inputs) ->
      let reference =
        Dmll_backend.Closure.run ~inputs
          (Dmll.compile_with Dmll.Config.default program).Dmll.final
      in
      let times = List.map (measure_variant ~name ~reference ~inputs program) variants in
      let base = match times with Some t :: _ -> t | _ -> nan in
      T.add_row tbl
        (name
        :: List.map
             (function
               | Some t ->
                   if Float.is_nan base then T.fmt_time t
                   else Printf.sprintf "%s (%.1fx)" (T.fmt_time t) (t /. base)
               | None -> "n/a")
             times))
    apps;
  T.print tbl;
  print_endline
    "(n/a = the variant's residual IR uses features the native backend\n\
    \ does not emit, e.g. un-lowered struct construction)"
