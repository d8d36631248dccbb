(** Kernel handoff registry for dynlinked kernels (DESIGN.md §17).

    A JIT-compiled kernel plugin ({!Codegen_ocaml.emit_kernel} compiled
    with [ocamlopt -shared]) cannot return a value from
    [Dynlink.loadfile_private] — loading only runs the module
    initializers.  This module is the narrow rendezvous point both sides
    agree on: the plugin's initializer calls {!register} with its cache
    key and kernel closure, and the host {!find}s it right after the
    load returns.

    The seam is typed on the host's {!Dmll_interp.Value.t}: a plugin
    compiles against this module's and [Value]'s interfaces, and the
    host hands it its values without a copy.  A change to [value.ml]'s
    interface therefore changes the CRC a cached plugin was built
    against; loading such a plugin fails, and [Native.Jit] evicts and
    rebuilds it like any other stale artifact. *)

type kernel = (string * Dmll_interp.Value.t) list -> unit -> Dmll_interp.Value.t
(** A staged kernel.  Applying it to the named inputs binds them: each
    is unwrapped once into its typed representation (a float array
    stays the caller's array).  The returned thunk runs the body and
    wraps its result; it never writes to the inputs, so it can be run
    again on the same binding. *)

let table : (string, kernel) Hashtbl.t = Hashtbl.create 16
let mutex = Mutex.create ()

let locked f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

(** Called by the plugin's module initializer during [Dynlink.loadfile].
    Re-registration under the same key (the same artifact loaded twice)
    replaces the closure — both instances compute the same function. *)
let register ~(key : string) (k : kernel) : unit =
  locked (fun () -> Hashtbl.replace table key k)

(** The kernel registered under [key], if any.  Registrations persist
    for the process lifetime: dynlinked code cannot be unloaded, so
    dropping the closure would save nothing. *)
let find (key : string) : kernel option =
  locked (fun () -> Hashtbl.find_opt table key)

(** Number of kernels linked into this process (observability). *)
let count () : int = locked (fun () -> Hashtbl.length table)
