(** Native backend: compile the generated OCaml kernel with [ocamlopt]
    and run it in this process — the Delite-style flow the paper used
    (generate → gcc → run), realized with the OCaml toolchain.

    One path, the in-process JIT ({!Jit}), fronted by the
    content-addressed {!Kernel_cache} (DESIGN.md §17): the program is
    emitted as a Dynlink plugin ([Codegen_ocaml.emit_kernel]), compiled
    with [ocamlopt -shared], dynlinked into this process, and handed
    back through the {!Kernel_link} registry as a staged kernel on the
    host's values.  Binding unwraps the inputs once; the thunk runs the
    body and wraps the result.  No child process and no marshalling.  A
    run binds and runs once, and its [seconds] is the wall-clock of the
    whole call: kernel lookup (or build), bind, run.  Table 2 and the
    ablation bind once and time the thunk alone.  Where the JIT is
    unavailable (a bytecode host, no toolchain, no cmi directories), a
    native run raises {!Native_error} and says why.

    A cache hit — memory or disk — performs {e zero} codegen and zero
    compilation; [kernel_cache_hit]/[kernel_cache_miss] metrics record
    which happened, and each real compile runs under an
    [Obs.Span] ("kernel-compile"). *)

module V = Dmll_interp.Value
module Metrics = Dmll_obs.Metrics
module Span = Dmll_obs.Span

type result = { value : V.t; seconds : float }

exception Native_error of string

let fail fmt = Fmt.kstr (fun s -> raise (Native_error s)) fmt

(* Is the native toolchain usable in this environment? *)
let toolchain =
  lazy (Sys.command "ocamlfind ocamlopt -version > /dev/null 2>&1" = 0)

let backend_id = "native"

(* Capability fingerprint under which this backend keys its kernels.
   Defined here (not via Backend.capabilities) to keep the compile path
   independent of how the seam module is assembled in lib/core. *)
let caps_fp = "wall_clock,emits_source,cacheable_kernels"

let cache_key (e : Dmll_ir.Exp.exp) : string =
  Kernel_cache.key ~backend_id ~caps_fp e

let read_capped path cap =
  try
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let n = in_channel_length ic in
        really_input_string ic (Stdlib.min n cap))
  with _ -> "(no log)"

let command_in ~dir cmd =
  let log = Filename.concat dir "build.log" in
  let full =
    Printf.sprintf "cd %s && %s > %s 2>&1" (Filename.quote dir) cmd
      (Filename.quote log)
  in
  if Sys.command full = 0 then Ok ()
  else Error (Printf.sprintf "%s failed:\n%s" cmd (read_capped log 4000))

let record_hit ?metrics () =
  match metrics with
  | Some m -> Metrics.incr m "kernel_cache_hit"
  | None -> ()

let record_miss ?metrics () =
  match metrics with
  | Some m -> Metrics.incr m "kernel_cache_miss"
  | None -> ()

(* ------------------------------------------------------------------ *)
(* In-process JIT path                                                  *)
(* ------------------------------------------------------------------ *)

module Jit = struct
  (* The plugin references Dmll_backend.Kernel_link and
     Dmll_interp.Value, so ocamlopt needs both libraries' cmi
     directories.  Running from a dune build tree, the executable sits
     under _build/default/... and the cmis under
     _build/default/lib/{backend,interp}/.dmll_*.objs/byte — walk upward
     from the executable until both relative paths resolve. *)
  let cmi_dirs : string list option Lazy.t =
    lazy
      (let rels =
         List.map
           (fun lib ->
             List.fold_left Filename.concat "lib"
               [ lib; Printf.sprintf ".dmll_%s.objs" lib; "byte" ])
           [ "backend"; "interp" ]
       in
       let rec walk d depth =
         if depth > 8 then None
         else
           let candidates = List.map (Filename.concat d) rels in
           if List.for_all (fun c -> Sys.file_exists c && Sys.is_directory c) candidates
           then Some candidates
           else
             let parent = Filename.dirname d in
             if String.equal parent d then None else walk parent (depth + 1)
       in
       let start =
         try Filename.dirname (Unix.realpath Sys.executable_name)
         with _ -> Filename.dirname Sys.executable_name
       in
       walk start 0)

  (* Why the JIT cannot run here, if it cannot: it needs a native-code
     host (Dynlink of .cmxs), the toolchain, and the cmi directories
     for the plugin's external references. *)
  let unavailable : string option Lazy.t =
    lazy
      (if not Dynlink.is_native then Some "a bytecode host cannot dynlink a .cmxs"
       else if not (Lazy.force toolchain) then Some "ocamlfind ocamlopt not found"
       else if Option.is_none (Lazy.force cmi_dirs) then
         Some "dmll_backend/dmll_interp cmi directories not found"
       else None)

  let available : bool Lazy.t = lazy (Option.is_none (Lazy.force unavailable))

  type source = Linked | Cache of Kernel_cache.tier | Compiled

  let load_plugin (entry : Kernel_cache.entry) : (unit, string) Stdlib.result =
    try
      Dynlink.loadfile_private entry.Kernel_cache.artifact;
      Ok ()
    with
    | Dynlink.Error e -> Error (Dynlink.error_message e)
    | exn -> Error (Printexc.to_string exn)

  (* [-no-alias-deps]: the plugin names Dmll_interp.Value through the
     library's alias module, which has no code of its own to link
     against; without the flag Dynlink reports [Dmll_interp] as an
     unavailable unit. *)
  let compile_plugin ?tracer cache ~key (e : Dmll_ir.Exp.exp) :
      (Kernel_cache.entry, string) Stdlib.result =
    Span.with_span ?tracer ~cat:"backend" "kernel-compile" (fun () ->
        let modname = Kernel_cache.module_name_of_key key in
        let source_name = String.uncapitalize_ascii modname ^ ".ml" in
        let artifact = String.uncapitalize_ascii modname ^ ".cmxs" in
        let source = Codegen_ocaml.emit_kernel ~key e in
        let includes =
          Option.value ~default:[] (Lazy.force cmi_dirs)
          |> List.map (fun d -> "-I " ^ Filename.quote d)
          |> String.concat " "
        in
        Kernel_cache.store cache ~key ~source_name ~source ~artifact
          ~build:(fun ~dir ->
            command_in ~dir
              (Printf.sprintf
                 "ocamlfind ocamlopt -shared -no-alias-deps %s -w -a %s -o %s"
                 includes
                 (Filename.quote source_name)
                 (Filename.quote artifact)))
          ())

  let resolve ?cache ?metrics ?tracer (e : Dmll_ir.Exp.exp) :
      Kernel_link.kernel * source =
    (match Lazy.force unavailable with
    | Some why -> fail "native JIT not available: %s" why
    | None -> ());
    let cache =
      match cache with Some c -> c | None -> Lazy.force Kernel_cache.shared
    in
    let key = cache_key e in
    let linked_or what =
      match Kernel_link.find key with
      | Some k -> (k, what)
      | None -> fail "plugin %s loaded but registered no kernel" key
    in
    let build () =
      record_miss ?metrics ();
      match compile_plugin ?tracer cache ~key e with
      | Error m -> fail "%s" m
      | Ok entry -> (
          match load_plugin entry with
          | Error m -> fail "dynlink failed: %s" m
          | Ok () -> linked_or Compiled)
    in
    match Kernel_link.find key with
    | Some k ->
        record_hit ?metrics ();
        (k, Linked)
    | None -> (
        match Kernel_cache.find cache key with
        | Some (entry, tier) -> (
            match load_plugin entry with
            | Ok () ->
                record_hit ?metrics ();
                linked_or (Cache tier)
            | Error _ ->
                (* stale artifact (e.g. interface CRC drift): evict and
                   recompile *)
                Kernel_cache.remove cache key;
                build ())
        | None -> build ())

  let kernel_for ?cache ?metrics ?tracer e =
    let kernel, src = resolve ?cache ?metrics ?tracer e in
    ((fun blob -> Marshal.to_string (kernel (Marshal.from_string blob 0) ()) []), src)

  let run ?cache ?metrics ?tracer ~(inputs : (string * V.t) list)
      (e : Dmll_ir.Exp.exp) : result =
    let value, seconds =
      Dmll_util.Timing.time (fun () ->
          let kernel, _src = resolve ?cache ?metrics ?tracer e in
          kernel inputs ())
    in
    { value; seconds }
end
