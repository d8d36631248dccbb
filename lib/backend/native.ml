(** Native backend: compile the generated OCaml program with [ocamlopt]
    and execute it — the full Delite-style flow the paper used
    (generate → gcc → run), realized with the OCaml toolchain.

    Two execution paths, both fronted by the content-addressed
    {!Kernel_cache} (DESIGN.md §17):

    - {b In-process JIT} ({!Jit}): the program is emitted as a Dynlink
      plugin ([Codegen_ocaml.emit_kernel]), compiled with
      [ocamlopt -shared], dynlinked into this process, and handed back
      through the {!Kernel_link} registry.  No child process, no
      per-run marshalling to disk — the kernel is a [string -> string]
      closure over marshalled inputs.  A run calls it once, and its
      [seconds] is the wall-clock of the whole call: kernel lookup (or
      build), input marshal, kernel, result unmarshal.
    - {b Child process} (the historical path): a standalone executable
      that times its own kernel (median of [runs] executions, after a
      warmup) so compilation and input-marshalling costs never pollute
      the measurement, and marshals its result back for the
      correctness gate.  Table 2 and the ablation use it for their
      kernel-only times; it is also the fallback when Dynlink is
      unavailable (bytecode builds, missing cmi directory).

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

(** Is the native toolchain usable in this environment? *)
let available =
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
(* Child-process path                                                   *)
(* ------------------------------------------------------------------ *)

type compiled = {
  dir : string;  (** directory holding the executable (cache entry dir) *)
  exe : string;
  source : string;  (** the generated OCaml source, for inspection *)
}

(** Generate and compile the standalone program through the kernel
    cache; a hit skips both steps.  The returned executable lives in
    its cache entry directory and is reusable across input sets. *)
let compile ?cache ?metrics ?tracer (e : Dmll_ir.Exp.exp) : compiled =
  if not (Lazy.force available) then fail "ocamlfind/ocamlopt not available";
  let cache =
    match cache with Some c -> c | None -> Lazy.force Kernel_cache.shared
  in
  let key = cache_key e ^ "-exe" in
  let of_entry (entry : Kernel_cache.entry) =
    { dir = entry.Kernel_cache.dir;
      exe = entry.Kernel_cache.artifact;
      source = (try Kernel_cache.read_all entry.Kernel_cache.source_file with _ -> "");
    }
  in
  match Kernel_cache.find cache key with
  | Some (entry, _tier) ->
      record_hit ?metrics ();
      of_entry entry
  | None ->
      record_miss ?metrics ();
      Span.with_span ?tracer ~cat:"backend" "kernel-compile" (fun () ->
          let source = Codegen_ocaml.emit_program e in
          let stored =
            Kernel_cache.store cache ~key ~kind:Kernel_cache.Exe
              ~source_name:"prog.ml" ~source ~artifact:"prog"
              ~build:(fun ~dir ->
                command_in ~dir
                  "ocamlfind ocamlopt -package unix -linkpkg prog.ml -o prog")
              ()
          in
          match stored with
          | Error m -> fail "%s" m
          | Ok entry -> of_entry entry)

(** Run a compiled program on [inputs]; the child reports the median
    kernel time of [runs] executions.  Per-run scratch files live in a
    private temp directory that is always cleaned up — the cache entry
    directory itself is never written to. *)
let execute (c : compiled) ?(runs = 3) ~(inputs : (string * V.t) list) () :
    result =
  let scratch =
    Filename.temp_file "dmll_native_run" "" |> fun f ->
    Sys.remove f;
    Unix.mkdir f 0o700;
    f
  in
  Fun.protect
    ~finally:(fun () -> Kernel_cache.rm_rf scratch)
    (fun () ->
      let in_path = Filename.concat scratch "inputs.bin" in
      let out_path = Filename.concat scratch "result.bin" in
      let time_path = Filename.concat scratch "time.txt" in
      let oc = open_out_bin in_path in
      Marshal.to_channel oc inputs [];
      close_out oc;
      let cmd =
        Printf.sprintf "%s %s %d %s > %s" (Filename.quote c.exe)
          (Filename.quote in_path) runs (Filename.quote out_path)
          (Filename.quote time_path)
      in
      if Sys.command cmd <> 0 then fail "generated program failed (%s)" c.exe;
      let seconds =
        let ic = open_in time_path in
        let line = input_line ic in
        close_in ic;
        Scanf.sscanf line "TIME %f" (fun f -> f)
      in
      let value : V.t =
        let ic = open_in_bin out_path in
        let v = (Marshal.from_channel ic : V.t) in
        close_in ic;
        v
      in
      { value; seconds })

(** One-shot: generate (or cache-hit), compile, run, clean up scratch. *)
let run ?cache ?metrics ?tracer ?(runs = 3) ~(inputs : (string * V.t) list)
    (e : Dmll_ir.Exp.exp) : result =
  execute (compile ?cache ?metrics ?tracer e) ~runs ~inputs ()

(* ------------------------------------------------------------------ *)
(* In-process JIT path                                                  *)
(* ------------------------------------------------------------------ *)

module Jit = struct
  (* The plugin references Dmll_backend.Kernel_link, so ocamlopt needs
     this library's cmi directory.  Running from a dune build tree, the
     executable sits under _build/default/... and the cmis under
     _build/default/lib/backend/.dmll_backend.objs/byte — walk upward
     from the executable until that relative path resolves. *)
  let cmi_dir : string option Lazy.t =
    lazy
      (let rel =
         Filename.concat "lib"
           (Filename.concat "backend"
              (Filename.concat ".dmll_backend.objs" "byte"))
       in
       let rec walk d depth =
         if depth > 8 then None
         else
           let candidate = Filename.concat d rel in
           if Sys.file_exists candidate && Sys.is_directory candidate then
             Some candidate
           else
             let parent = Filename.dirname d in
             if String.equal parent d then None else walk parent (depth + 1)
       in
       let start =
         try Filename.dirname (Unix.realpath Sys.executable_name)
         with _ -> Filename.dirname Sys.executable_name
       in
       walk start 0)

  (** JIT availability: a native-code host (Dynlink of .cmxs), the
      toolchain, and the cmi directory for the plugin's external
      references. *)
  let available : bool Lazy.t =
    lazy
      (Dynlink.is_native
      && Lazy.force available
      && Option.is_some (Lazy.force cmi_dir))

  (** What answered a {!kernel_for} request — lets callers (and tests)
      assert precisely that warm paths did no compilation. *)
  type source = Linked | Cache of Kernel_cache.tier | Compiled

  let load_plugin (entry : Kernel_cache.entry) : (unit, string) Stdlib.result =
    try
      Dynlink.loadfile_private entry.Kernel_cache.artifact;
      Ok ()
    with
    | Dynlink.Error e -> Error (Dynlink.error_message e)
    | exn -> Error (Printexc.to_string exn)

  let compile_plugin ?tracer cache ~key (e : Dmll_ir.Exp.exp) :
      (Kernel_cache.entry, string) Stdlib.result =
    Span.with_span ?tracer ~cat:"backend" "kernel-compile" (fun () ->
        let modname = Kernel_cache.module_name_of_key key in
        let source_name = String.uncapitalize_ascii modname ^ ".ml" in
        let artifact = String.uncapitalize_ascii modname ^ ".cmxs" in
        let source = Codegen_ocaml.emit_kernel ~key e in
        match Lazy.force cmi_dir with
        | None -> Error "dmll_backend cmi directory not found"
        | Some cmis ->
            Kernel_cache.store cache ~key ~kind:Kernel_cache.Cmxs ~source_name
              ~source ~artifact
              ~build:(fun ~dir ->
                command_in ~dir
                  (Printf.sprintf
                     "ocamlfind ocamlopt -shared -I %s -w -a %s -o %s"
                     (Filename.quote cmis)
                     (Filename.quote source_name)
                     (Filename.quote artifact)))
              ())

  (** Resolve the kernel for [e]: already-linked registry entry first,
      then the kernel cache (dynlinking a hit), compiling on a miss.
      Every outcome short of [Compiled] did zero codegen and zero
      compilation. *)
  let kernel_for ?cache ?metrics ?tracer (e : Dmll_ir.Exp.exp) :
      Kernel_link.kernel * source =
    if not (Lazy.force available) then fail "native JIT not available";
    let cache =
      match cache with Some c -> c | None -> Lazy.force Kernel_cache.shared
    in
    let key = cache_key e in
    let linked_or what =
      match Kernel_link.find key with
      | Some k -> (k, what)
      | None -> fail "plugin %s loaded but registered no kernel" key
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
                record_miss ?metrics ();
                (match compile_plugin ?tracer cache ~key e with
                | Error m -> fail "%s" m
                | Ok entry -> (
                    match load_plugin entry with
                    | Error m -> fail "dynlink failed: %s" m
                    | Ok () -> linked_or Compiled)))
        | None -> (
            record_miss ?metrics ();
            match compile_plugin ?tracer cache ~key e with
            | Error m -> fail "%s" m
            | Ok entry -> (
                match load_plugin entry with
                | Error m -> fail "dynlink failed: %s" m
                | Ok () -> linked_or Compiled)))

  (** Compile (or cache-hit) and run in-process, once: resolve the
      kernel, marshal the inputs, call it, unmarshal its value.
      [seconds] is the wall-clock of this whole call. *)
  let run ?cache ?metrics ?tracer ~(inputs : (string * V.t) list)
      (e : Dmll_ir.Exp.exp) : result =
    let value, seconds =
      Dmll_util.Timing.time (fun () ->
          let kernel, _src = kernel_for ?cache ?metrics ?tracer e in
          (Marshal.from_string (kernel (Marshal.to_string inputs [])) 0 : V.t))
    in
    { value; seconds }
end

(* ------------------------------------------------------------------ *)
(* Unified entry                                                       *)
(* ------------------------------------------------------------------ *)

(** Run [e] natively, once: in-process JIT when available, child process
    otherwise.  Both legs share the kernel cache, and on both [seconds]
    is the wall-clock of the call, kernel lookup or build included. *)
let run_best ?cache ?metrics ?tracer ~(inputs : (string * V.t) list)
    (e : Dmll_ir.Exp.exp) : result =
  if Lazy.force Jit.available then Jit.run ?cache ?metrics ?tracer ~inputs e
  else
    let r, seconds =
      Dmll_util.Timing.time (fun () ->
          run ?cache ?metrics ?tracer ~runs:1 ~inputs e)
    in
    { r with seconds }
