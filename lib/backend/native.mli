(** Native backend: compile the generated OCaml kernel with [ocamlopt]
    and run it in this process, through the content-addressed
    {!Kernel_cache} (DESIGN.md §17).

    One path, the in-process Dynlink JIT ({!Jit}).  The plugin hands
    the host a staged kernel on {!Dmll_interp.Value.t}: binding unwraps
    the inputs once, and the returned thunk runs the body and wraps the
    result.  {!Jit.run} binds and runs once and reports the wall-clock
    of the whole call; Table 2 and the ablation bind once and time the
    thunk.  Without the JIT (a bytecode host, no toolchain, no cmi
    directories) a native run raises {!Native_error} and says why.  A
    cache hit — memory or disk — performs {e zero} codegen and zero
    compilation; [kernel_cache_hit]/[kernel_cache_miss] metrics record
    which happened, and each real compile runs under an [Obs.Span]
    ("kernel-compile"). *)

module V = Dmll_interp.Value
module Metrics = Dmll_obs.Metrics
module Span = Dmll_obs.Span

type result = { value : V.t; seconds : float }

exception Native_error of string

val backend_id : string
val caps_fp : string

val cache_key : Dmll_ir.Exp.exp -> string
(** The kernel-cache key for a program under this backend's id and
    capability fingerprint. *)

module Jit : sig
  val available : bool Lazy.t
  (** JIT availability: a native-code host ([Dynlink.is_native]), the
      toolchain, and the [dmll_backend] and [dmll_interp] cmi
      directories for the plugin's external references. *)

  (** What answered a {!resolve} request — lets callers (and tests)
      assert precisely that warm paths did no compilation. *)
  type source = Linked | Cache of Kernel_cache.tier | Compiled

  val resolve :
    ?cache:Kernel_cache.t ->
    ?metrics:Metrics.t ->
    ?tracer:Span.t ->
    Dmll_ir.Exp.exp ->
    Kernel_link.kernel * source
  (** Resolve the staged kernel: already-linked registry entry first,
      then the kernel cache (dynlinking a hit; an artifact that does not
      load is evicted and rebuilt), compiling on a miss.  Every outcome
      short of [Compiled] did zero codegen and zero compilation. *)

  val kernel_for :
    ?cache:Kernel_cache.t ->
    ?metrics:Metrics.t ->
    ?tracer:Span.t ->
    Dmll_ir.Exp.exp ->
    (string -> string) * source
  (** {!resolve}'s kernel behind a marshalled seam: marshalled
      [(string * V.t) list] inputs to a marshalled [V.t].  It stays
      only for the layer probe of [bench/perf/workloads.ml], which
      applies the kernel to a marshalled blob, until a benchmark change
      moves that probe onto {!resolve}. *)

  val run :
    ?cache:Kernel_cache.t ->
    ?metrics:Metrics.t ->
    ?tracer:Span.t ->
    inputs:(string * V.t) list ->
    Dmll_ir.Exp.exp ->
    result
  (** Compile (or cache-hit) and run in-process, once: resolve the
      kernel, bind the inputs, run the thunk.  [seconds] is the
      wall-clock of this whole call.  Raises {!Native_error} when the
      JIT is unavailable. *)
end
