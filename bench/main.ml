(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation section (see DESIGN.md §4 for the experiment index
   and EXPERIMENTS.md for paper-vs-measured numbers).

   Default: run everything.  Select subsets with positional arguments:

     dune exec bench/main.exe                      # all experiments
     dune exec bench/main.exe -- table2 fig6       # a subset
     dune exec bench/main.exe -- --bechamel        # micro-benchmarks too
*)

let experiments : (string * string * (unit -> unit)) list =
  [ ("table1", "feature matrix (qualitative)", fun () -> Table1.run ());
    ("table2", "sequential DMLL vs hand-optimized (real)", fun () -> ignore (Table2.run ()));
    ("fig6", "nested pattern transformation impact (GPU+CPU models)",
      fun () -> ignore (Fig6.run ()));
    ("fig7", "NUMA scalability vs Delite/Spark/PowerGraph (model)",
      fun () -> ignore (Fig7.run ()));
    ("fig8", "cluster / GPU cluster / graphs / Gibbs (model + real)",
      fun () -> ignore (Fig8.run ()));
    ("ablation", "per-optimization-group impact (native backend, real time)",
      fun () -> Ablation.run ());
    ("fault_sweep", "recovery overhead vs fault rate (cluster model, JSON)",
      fun () -> Fault_sweep.run ());
    ("comm_validate", "static comm plans vs measured cluster traffic (JSON)",
      fun () -> Comm_validate.run ());
    ("mem_validate", "static footprint peaks vs measured cluster residents (JSON)",
      fun () -> Mem_validate.run ());
    ("proc_validate", "simulated cluster seconds vs real forked-worker value (JSON)",
      fun () -> Proc_validate.run ());
    ("net_validate", "TCP-executor recovery vs network-fault rate (JSON)",
      fun () -> Net_validate.run ());
    ("plan_validate", "ILP vs greedy plan selection, predicted and measured (JSON)",
      fun () -> Plan_validate.run ());
    ("jit_validate", "kernel cache cold vs warm on the native backend (JSON)",
      fun () -> Jit_validate.run ());
  ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let bechamel = List.mem "--bechamel" args in
  let selected = List.filter (fun a -> a <> "--bechamel") args in
  let to_run =
    if selected = [] then experiments
    else
      List.filter (fun (n, _, _) -> List.mem n selected) experiments
  in
  if to_run = [] && not bechamel then begin
    Printf.eprintf "unknown experiment(s); available: %s\n"
      (String.concat ", " (List.map (fun (n, _, _) -> n) experiments));
    exit 1
  end;
  Printf.printf
    "DMLL benchmark harness — reproduces the evaluation of\n\
     \"Have Abstraction and Eat Performance, Too\" (CGO 2016).\n\
     Simulated-machine results use the device models in lib/machine\n\
     (see DESIGN.md); Table 2 and the Gibbs indirection factor are real\n\
     wall-clock measurements in this process.\n";
  List.iter
    (fun (name, desc, f) ->
      Printf.printf "\n################ %s — %s\n%!" name desc;
      let (), dt = Dmll_util.Timing.time f in
      Printf.printf "[%s finished in %s]\n%!" name (Dmll_util.Table.fmt_time dt))
    to_run;
  if bechamel then begin
    Printf.printf "\n################ bechamel micro-benchmarks\n%!";
    Bechamel_suite.run ()
  end
