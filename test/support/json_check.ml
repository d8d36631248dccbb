(** A dependency-free recursive-descent JSON reader for golden schema
    tests: just enough to pin the shape of the [--explain comm] /
    [--explain mem] documents so downstream tooling can rely on them.
    Symbol names inside the documents are gensym-dependent, so tests
    built on this check structure (exact key sets, value types) and the
    sym-independent values, not the raw strings. *)

type j =
  | Jobj of (string * j) list
  | Jarr of j list
  | Jstr of string
  | Jnum of float
  | Jbool of bool
  | Jnull

let parse (s : string) : j =
  let pos = ref 0 in
  let len = String.length s in
  let peek () = if !pos < len then s.[!pos] else '\000' in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < len && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    skip_ws ();
    if peek () <> c then
      Alcotest.failf "json: expected %C at %d, got %C" c !pos (peek ());
    advance ()
  in
  let lit word v =
    if !pos + String.length word <= len && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else Alcotest.failf "json: bad literal at %d" !pos
  in
  let string_body () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          (match peek () with
          | 'n' -> Buffer.add_char b '\n'
          | c -> Buffer.add_char b c);
          advance ();
          go ()
      | '\000' -> Alcotest.fail "json: unterminated string"
      | c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  let number () =
    let start = !pos in
    while
      !pos < len
      && match s.[!pos] with
         | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
         | _ -> false
    do
      advance ()
    done;
    float_of_string (String.sub s start (!pos - start))
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' ->
        advance ();
        skip_ws ();
        if peek () = '}' then begin advance (); Jobj [] end
        else
          let rec fields acc =
            let k = (skip_ws (); string_body ()) in
            expect ':';
            let v = value () in
            skip_ws ();
            if peek () = ',' then begin advance (); fields ((k, v) :: acc) end
            else begin expect '}'; List.rev ((k, v) :: acc) end
          in
          Jobj (fields [])
    | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then begin advance (); Jarr [] end
        else
          let rec items acc =
            let v = value () in
            skip_ws ();
            if peek () = ',' then begin advance (); items (v :: acc) end
            else begin expect ']'; List.rev (v :: acc) end
          in
          Jarr (items [])
    | '"' -> Jstr (string_body ())
    | 't' -> lit "true" (Jbool true)
    | 'f' -> lit "false" (Jbool false)
    | 'n' -> lit "null" Jnull
    | _ -> Jnum (number ())
  in
  let v = value () in
  skip_ws ();
  if !pos <> len then Alcotest.failf "json: trailing garbage at %d" !pos;
  v

let keys_of = function
  | Jobj fields -> List.map fst fields
  | _ -> Alcotest.fail "json: expected an object"

let field o k =
  match o with
  | Jobj fields -> (
      match List.assoc_opt k fields with
      | Some v -> v
      | None -> Alcotest.failf "json: missing key %S" k)
  | _ -> Alcotest.failf "json: expected an object holding %S" k

let num = function Jnum f -> f | _ -> Alcotest.fail "json: expected a number"
let str = function Jstr s -> s | _ -> Alcotest.fail "json: expected a string"
let arr = function Jarr l -> l | _ -> Alcotest.fail "json: expected an array"

let boolean = function
  | Jbool b -> b
  | _ -> Alcotest.fail "json: expected a bool"
