(** Native backend: compile the generated OCaml program with [ocamlopt]
    and execute it — the full Delite-style flow the paper used
    (generate → gcc → run), realized with the OCaml toolchain.

    Two execution paths, both fronted by the content-addressed
    {!Kernel_cache} (DESIGN.md §17): the in-process Dynlink JIT
    ({!Jit}), which calls the kernel once and reports the wall-clock of
    the call, and the historical child-process path, which reports a
    median kernel-only time (Table 2, the ablation, and the fallback
    when Dynlink is unavailable).  A cache hit —
    memory or disk — performs {e zero} codegen and zero compilation;
    [kernel_cache_hit]/[kernel_cache_miss] metrics record which
    happened, and each real compile runs under an [Obs.Span]
    ("kernel-compile"). *)

module V = Dmll_interp.Value
module Metrics = Dmll_obs.Metrics
module Span = Dmll_obs.Span

type result = { value : V.t; seconds : float }

exception Native_error of string

val available : bool Lazy.t
(** Is the [ocamlfind ocamlopt] toolchain usable in this environment? *)

val backend_id : string
val caps_fp : string

val cache_key : Dmll_ir.Exp.exp -> string
(** The kernel-cache key for a program under this backend's id and
    capability fingerprint. *)

(** {1 Child-process path} *)

type compiled = {
  dir : string;  (** directory holding the executable (cache entry dir) *)
  exe : string;
  source : string;  (** the generated OCaml source, for inspection *)
}

val compile :
  ?cache:Kernel_cache.t ->
  ?metrics:Metrics.t ->
  ?tracer:Span.t ->
  Dmll_ir.Exp.exp ->
  compiled
(** Generate and compile the standalone program through the kernel
    cache; a hit skips both steps.  The returned executable lives in
    its cache entry directory and is reusable across input sets. *)

val execute :
  compiled -> ?runs:int -> inputs:(string * V.t) list -> unit -> result
(** Run a compiled program on [inputs]; the child reports the median
    kernel time of [runs] executions.  Per-run scratch files live in a
    private temp directory that is always cleaned up. *)

val run :
  ?cache:Kernel_cache.t ->
  ?metrics:Metrics.t ->
  ?tracer:Span.t ->
  ?runs:int ->
  inputs:(string * V.t) list ->
  Dmll_ir.Exp.exp ->
  result
(** One-shot: generate (or cache-hit), compile, run, clean up scratch. *)

(** {1 In-process JIT path} *)

module Jit : sig
  val available : bool Lazy.t
  (** JIT availability: a native-code host ([Dynlink.is_native]), the
      toolchain, and the [dmll_backend] cmi directory for the plugin's
      external references. *)

  (** What answered a {!kernel_for} request — lets callers (and tests)
      assert precisely that warm paths did no compilation. *)
  type source = Linked | Cache of Kernel_cache.tier | Compiled

  val kernel_for :
    ?cache:Kernel_cache.t ->
    ?metrics:Metrics.t ->
    ?tracer:Span.t ->
    Dmll_ir.Exp.exp ->
    Kernel_link.kernel * source
  (** Resolve the kernel: already-linked registry entry first, then the
      kernel cache (dynlinking a hit), compiling on a miss.  Every
      outcome short of [Compiled] did zero codegen and zero
      compilation. *)

  val run :
    ?cache:Kernel_cache.t ->
    ?metrics:Metrics.t ->
    ?tracer:Span.t ->
    inputs:(string * V.t) list ->
    Dmll_ir.Exp.exp ->
    result
  (** Compile (or cache-hit) and run in-process, once: resolve the
      kernel, marshal the inputs, call it, unmarshal its value.
      [seconds] is the wall-clock of this whole call. *)
end

val run_best :
  ?cache:Kernel_cache.t ->
  ?metrics:Metrics.t ->
  ?tracer:Span.t ->
  inputs:(string * V.t) list ->
  Dmll_ir.Exp.exp ->
  result
(** Run natively, once: in-process JIT when available, child process
    otherwise.  Both legs share the kernel cache, and on both [seconds]
    is the wall-clock of the call, kernel lookup or build included. *)
