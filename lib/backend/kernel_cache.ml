(** Content-addressed kernel cache (DESIGN.md §17).

    Compiled kernels are keyed by [backend id + capability fingerprint +
    hash of the optimized IR], so the second execution of an identical
    plan skips codegen and compilation entirely.  The IR hash is
    {e alpha-invariant}: symbols are globally unique gensyms, so two
    textually different compiles of the same program would never collide
    under a naive hash — the canonical serialization numbers binders by
    first occurrence (de Bruijn-style) before hashing.

    Two tiers:
    - a per-process memory LRU of {!entry} handles (capacity-bounded;
      eviction drops only the handle — dynlinked code is never unloaded);
    - an on-disk store of committed entry directories.  Commit mirrors
      [Checkpoint.write_file] hygiene: the artifact and its [META]
      record (magic + FNV-1a checksum) are built in a [tmp-*] directory,
      fsynced, then [rename(2)]d into the keyed location — the rename is
      the commit point, so a reader can never observe a torn entry, and
      a checksum mismatch (storage rot, truncation) rejects the entry
      and forces a recompile.

    The cache stores {e artifacts}, not values: the [.cmxs] shared
    object of a Dynlink kernel plugin. *)

(* ------------------------------------------------------------------ *)
(* Canonical IR hash                                                   *)
(* ------------------------------------------------------------------ *)

open Dmll_ir

(* FNV-1a, 64-bit — same integrity-grade hash the checkpoint store uses. *)
let fnv1a (s : string) : int64 =
  let prime = 0x100000001B3L in
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h prime)
    s;
  !h

(* Serialize [e] with binders numbered by first occurrence, so
   alpha-equivalent programs produce identical blobs.  Types are part of
   the blob: codegen consults binder/input types, so two programs that
   differ only in an annotation must not share a kernel. *)
let canonical_blob (e : Exp.exp) : string =
  let buf = Buffer.create 4096 in
  let add = Buffer.add_string buf in
  let next = ref 0 in
  let env : int Sym.Map.t ref = ref Sym.Map.empty in
  let bind (s : Sym.t) =
    let n = !next in
    incr next;
    env := Sym.Map.add s n !env;
    add (Printf.sprintf "b%d:%s;" n (Types.to_string (Sym.ty s)))
  in
  let var (s : Sym.t) =
    match Sym.Map.find_opt s !env with
    | Some n -> add (Printf.sprintf "v%d;" n)
    | None ->
        (* free symbol: identify by name + type (stable across runs) *)
        add (Printf.sprintf "f%s:%s;" (Sym.name s) (Types.to_string (Sym.ty s)))
  in
  let const = function
    | Exp.Cunit -> add "cu;"
    | Exp.Cbool b -> add (Printf.sprintf "cb%b;" b)
    | Exp.Cint i -> add (Printf.sprintf "ci%d;" i)
    | Exp.Cfloat f -> add (Printf.sprintf "cf%Lx;" (Int64.bits_of_float f))
    | Exp.Cstr s -> add (Printf.sprintf "cs%d:%s;" (String.length s) s)
  in
  let rec go (e : Exp.exp) =
    match e with
    | Exp.Const c -> const c
    | Exp.Var s -> var s
    | Exp.Prim (p, args) ->
        add (Printf.sprintf "p%s(" (Prim.name p));
        List.iter go args;
        add ")"
    | Exp.If (c, t, f) ->
        add "if(";
        go c;
        go t;
        go f;
        add ")"
    | Exp.Let (s, a, b) ->
        add "let(";
        go a;
        bind s;
        go b;
        add ")"
    | Exp.Tuple es ->
        add "tup(";
        List.iter go es;
        add ")"
    | Exp.Proj (a, i) ->
        add (Printf.sprintf "proj%d(" i);
        go a;
        add ")"
    | Exp.Record (ty, fs) ->
        add (Printf.sprintf "rec%s(" (Types.to_string ty));
        List.iter
          (fun (n, v) ->
            add (n ^ "=");
            go v)
          fs;
        add ")"
    | Exp.Field (a, n) ->
        add (Printf.sprintf "fld%s(" n);
        go a;
        add ")"
    | Exp.Len a ->
        add "len(";
        go a;
        add ")"
    | Exp.Read (a, i) ->
        add "rd(";
        go a;
        go i;
        add ")"
    | Exp.MapRead (m, k, d) ->
        add "mrd(";
        go m;
        go k;
        (match d with
        | None -> add "_"
        | Some d ->
            add "d(";
            go d;
            add ")");
        add ")"
    | Exp.KeyAt (m, i) ->
        add "key(";
        go m;
        go i;
        add ")"
    | Exp.Input (n, ty, l) ->
        add
          (Printf.sprintf "in%s:%s:%s;" n (Types.to_string ty)
             (match l with Exp.Local -> "L" | Exp.Partitioned -> "P"))
    | Exp.Extern x ->
        add (Printf.sprintf "ext%s:%s:%b(" x.Exp.ename (Types.to_string x.Exp.ety) x.Exp.whitelisted);
        List.iter go x.Exp.eargs;
        add ")"
    | Exp.Loop { size; idx; gens } ->
        add "loop(";
        go size;
        bind idx;
        List.iter
          (fun g ->
            let opt = function
              | None -> add "_"
              | Some c ->
                  add "c(";
                  go c;
                  add ")"
            in
            match g with
            | Exp.Collect { cond; value } ->
                add "gc(";
                opt cond;
                go value;
                add ")"
            | Exp.BucketCollect { cond; key; value } ->
                add "gbc(";
                opt cond;
                go key;
                go value;
                add ")"
            | Exp.Reduce r ->
                add "gr(";
                opt r.Exp.cond;
                go r.Exp.value;
                go r.Exp.init;
                bind r.Exp.a;
                bind r.Exp.b;
                go r.Exp.rfun;
                add ")"
            | Exp.BucketReduce r ->
                add "gbr(";
                opt r.Exp.cond;
                go r.Exp.key;
                go r.Exp.value;
                go r.Exp.init;
                bind r.Exp.a;
                bind r.Exp.b;
                go r.Exp.rfun;
                add ")")
          gens;
        add ")"
  in
  go e;
  Buffer.contents buf

(* Bumping this invalidates every cached kernel — do so whenever the
   generated code's shape changes ([Codegen_ocaml], the kernel protocol,
   the META format). *)
let codegen_version = 4

(** The cache key for [e] compiled by [backend_id] under [caps_fp]. *)
let key ~(backend_id : string) ~(caps_fp : string) (e : Exp.exp) : string =
  let blob = canonical_blob e in
  Printf.sprintf "%s-%016Lx-%016Lx" backend_id (fnv1a blob)
    (fnv1a
       (Printf.sprintf "%s|%d|%d" caps_fp codegen_version (String.length blob)))

(** A valid OCaml module name derived from a cache key (the Dynlink
    plugin's compilation unit). *)
let module_name_of_key (k : string) : string =
  "Dmll_kernel_"
  ^ String.map (fun c -> if c = '-' then '_' else c) k

(* ------------------------------------------------------------------ *)
(* Entries and the store                                               *)
(* ------------------------------------------------------------------ *)

type entry = {
  key : string;
  dir : string;  (** the committed entry directory *)
  artifact : string;  (** absolute path of the compiled artifact *)
  source_file : string;  (** the generated source, for inspection *)
}

type t = {
  root : string;
  capacity : int;
  mutex : Mutex.t;
  mutable clock : int;
  mem : (string, entry * int ref) Hashtbl.t;
}

let meta_magic = "DMLLKERN2"

let default_root () =
  Filename.concat (Filename.get_temp_dir_name ()) "dmll-kernel-cache"

let create ?root ?(capacity = 128) () : t =
  let root = match root with Some r -> r | None -> default_root () in
  { root;
    capacity = Stdlib.max 1 capacity;
    mutex = Mutex.create ();
    clock = 0;
    mem = Hashtbl.create 64;
  }

(* The process-default cache; [Dmll.Config.kernel_cache_dir] (or
   [DMLL_KERNEL_CACHE_DIR] via [Config.of_env]) substitutes a private
   root per run when isolation matters (tests, benchmarks). *)
let shared : t Lazy.t = lazy (create ())

let locked (t : t) (f : unit -> 'a) : 'a =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let root t = t.root

let mkdir_p dir =
  let rec go d =
    if not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

let read_all path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* write + fsync + rename: the Checkpoint.write_file commit discipline. *)
let write_file_atomic ~(path : string) (payload : string) : unit =
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let n = String.length payload in
      let written = ref 0 in
      while !written < n do
        written := !written + Unix.write_substring fd payload !written (n - !written)
      done;
      Unix.fsync fd);
  Unix.rename tmp path

let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | dfd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close dfd with Unix.Unix_error _ -> ())
        (fun () -> try Unix.fsync dfd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let entry_dir t k = Filename.concat t.root k
let meta_path dir = Filename.concat dir "META"

(* META: line-oriented text — magic, artifact basename, artifact
   checksum, source basename.  Anything unparsable or mismatched is a
   corrupt entry. *)
let write_meta ~dir ~(artifact : string) ~(source : string) : unit =
  let sum = fnv1a (read_all (Filename.concat dir artifact)) in
  let payload =
    Printf.sprintf "%s\nartifact=%s\nsum=%016Lx\nsource=%s\n" meta_magic
      artifact sum source
  in
  write_file_atomic ~path:(meta_path dir) payload

let read_meta ~dir : (string * string, string) result =
  match read_all (meta_path dir) with
  | exception _ -> Error "missing META"
  | raw -> (
      match String.split_on_char '\n' (String.trim raw) with
      | [ magic; art_l; sum_l; src_l ]
        when String.equal magic meta_magic -> (
          let field prefix l =
            let p = prefix ^ "=" in
            if String.length l >= String.length p
               && String.equal (String.sub l 0 (String.length p)) p
            then Some (String.sub l (String.length p) (String.length l - String.length p))
            else None
          in
          match (field "artifact" art_l, field "sum" sum_l, field "source" src_l) with
          | Some artifact, Some sum_s, Some source -> (
              let art_path = Filename.concat dir artifact in
              match read_all art_path with
              | exception _ -> Error "missing artifact"
              | bytes ->
                  let expect =
                    try Scanf.sscanf sum_s "%Lx" Fun.id with _ -> -1L
                  in
                  if Int64.equal (fnv1a bytes) expect then Ok (artifact, source)
                  else Error "artifact checksum mismatch")
          | _ -> Error "malformed META")
      | _ -> Error "malformed META")

(* ------------------------------------------------------------------ *)
(* Lookup                                                              *)
(* ------------------------------------------------------------------ *)

type tier = Memory | Disk

let touch t er =
  t.clock <- t.clock + 1;
  er := t.clock

let evict_lru t =
  while Hashtbl.length t.mem > t.capacity do
    let victim =
      Hashtbl.fold
        (fun k (_, er) acc ->
          match acc with
          | Some (_, best) when best <= !er -> acc
          | _ -> Some (k, !er))
        t.mem None
    in
    match victim with
    | Some (k, _) -> Hashtbl.remove t.mem k
    | None -> ()
  done

(** Look [k] up: the memory LRU first, then the disk store (verifying
    the META checksum; a corrupt or torn entry is deleted and reported
    as a miss, so the caller recompiles).  Returns the tier that
    answered, so callers can account hits precisely. *)
let find (t : t) (k : string) : (entry * tier) option =
  locked t (fun () ->
      match Hashtbl.find_opt t.mem k with
      | Some (e, er) ->
          touch t er;
          Some (e, Memory)
      | None -> (
          let dir = entry_dir t k in
          if not (Sys.file_exists dir) then None
          else
            match read_meta ~dir with
            | Error _ ->
                rm_rf dir;
                None
            | Ok (artifact, source) ->
                let e =
                  { key = k;
                    dir;
                    artifact = Filename.concat dir artifact;
                    source_file = Filename.concat dir source;
                  }
                in
                let er = ref 0 in
                Hashtbl.replace t.mem k (e, er);
                touch t er;
                evict_lru t;
                Some (e, Disk)))

(* ------------------------------------------------------------------ *)
(* Store                                                               *)
(* ------------------------------------------------------------------ *)

let tmp_counter = ref 0

(** Compile-and-commit: write [source] into a private build directory
    (as [source_name] — this fixes the plugin's compilation-unit name), run [build] there (producing [artifact], a
    basename, inside it), then commit the directory under [key] with
    its META record.  The directory rename is the commit point; losing
    a commit race to a concurrent process simply adopts the winner's
    entry. *)
let store (t : t) ~(key : string) ?(source_name = "kernel.ml") ~(source : string) ~(artifact : string)
    ~(build : dir:string -> (unit, string) result) () : (entry, string) result =
  incr tmp_counter;
  let build_dir =
    Filename.concat t.root
      (Printf.sprintf "tmp-%s-%d-%d" key (Unix.getpid ()) !tmp_counter)
  in
  mkdir_p build_dir;
  let commit () =
    write_file_atomic ~path:(Filename.concat build_dir source_name) source;
    match build ~dir:build_dir with
    | Error m -> Error m
    | Ok () ->
        if not (Sys.file_exists (Filename.concat build_dir artifact)) then
          Error (Printf.sprintf "build produced no %s" artifact)
        else begin
          write_meta ~dir:build_dir ~artifact ~source:source_name;
          let final = entry_dir t key in
          (match Unix.rename build_dir final with
          | () -> ()
          | exception Unix.Unix_error _ ->
              (* lost a race (or stale leftover): adopt the committed
                 entry if it verifies, else replace it *)
              (match read_meta ~dir:final with
              | Ok _ -> rm_rf build_dir
              | Error _ ->
                  rm_rf final;
                  Unix.rename build_dir final));
          fsync_dir t.root;
          match read_meta ~dir:final with
          | Error m -> Error ("commit verification failed: " ^ m)
          | Ok (artifact, source) ->
              let e =
                { key;
                  dir = final;
                  artifact = Filename.concat final artifact;
                  source_file = Filename.concat final source;
                }
              in
              locked t (fun () ->
                  let er = ref 0 in
                  Hashtbl.replace t.mem key (e, er);
                  touch t er;
                  evict_lru t);
              Ok e
        end
  in
  match commit () with
  | r ->
      if Sys.file_exists build_dir then rm_rf build_dir;
      r
  | exception exn ->
      rm_rf build_dir;
      raise exn

(** Drop [k] everywhere (tests; corrupt-entry recovery uses it too). *)
let remove (t : t) (k : string) : unit =
  locked t (fun () ->
      Hashtbl.remove t.mem k;
      rm_rf (entry_dir t k))

(** Forget every in-memory handle (the disk store is untouched) — lets
    tests exercise the disk tier from a warm process. *)
let drop_memory (t : t) : unit = locked t (fun () -> Hashtbl.clear t.mem)

let memory_size (t : t) : int = locked t (fun () -> Hashtbl.length t.mem)
