(** The shared wire codec of the real-process executors (DESIGN.md §16):
    length-prefixed, CRC32-checksummed [Marshal] frames, used identically
    by the socketpair pipes of {!Proc_cluster} and the TCP links of
    {!Net_cluster}, so both paths share one framing implementation and
    one set of torn/short-read/corruption tests.

    A frame is a 12-byte header — payload length as a big-endian 64-bit
    integer, then the payload's CRC32 (IEEE 802.3 polynomial) as a
    big-endian 32-bit integer — followed by the marshalled payload.  A
    frame that fails the length sanity check, the CRC, or unmarshalling
    raises {!Corrupt_frame} carrying a structured [Diag] error (rule
    [T-FRAME]) instead of a bare [Marshal] exception, so a flipped bit on
    the wire is a diagnosable protocol event, not a crash.

    On top of the fd-level codec sits {!conn}: a counted connection
    wrapper (frames and bytes in both directions, for the per-link
    metrics the supervisors publish) whose send path can host a
    deterministic fault injector ({!Fault.link_fate}) — delaying,
    corrupting, severing mid-frame, or blackholing ("partitioning") real
    frames on a real socket, keyed by (slot, frame number) so every
    chaos run replays. *)

module Diag = Dmll_analysis.Diag

exception Peer_gone
(** The peer is dead: EOF, EPIPE, or connection reset. *)

exception Frame_timeout
(** A frame did not complete within its deadline: the peer is hung.  A
    frame whose first byte arrived {e exactly} at the deadline is still
    read — the deadline check does one final zero-timeout poll before
    giving up. *)

exception Corrupt_frame of Diag.t
(** The frame is structurally bad — insane length, CRC mismatch, or
    unmarshallable payload (rule [T-FRAME]). *)

let corrupt fmt =
  Printf.ksprintf
    (fun msg -> raise (Corrupt_frame (Diag.error ~rule:"T-FRAME" "%s" msg)))
    fmt

(* ------------------------------------------------------------------ *)
(* CRC32 (IEEE 802.3, reflected, polynomial 0xEDB88320)                 *)
(* ------------------------------------------------------------------ *)

let crc_table : int array =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

(* Slicing-by-8: table [k] (at offset [256 * k]) advances a byte through
   [k] further zero bytes, so one step folds 8 input bytes with 8
   independent lookups instead of a chain of 8 dependent ones. *)
let crc_tables : int array =
  let t = Array.make (8 * 256) 0 in
  Array.blit crc_table 0 t 0 256;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor crc_table.(prev land 0xFF)
    done
  done;
  t

let crc32 (b : bytes) : int =
  let t = crc_tables in
  let len = Bytes.length b in
  let byte i = Char.code (Bytes.unsafe_get b i) in
  let c = ref 0xFFFFFFFF in
  let i = ref 0 in
  while !i + 8 <= len do
    let j = !i in
    let x =
      !c
      lxor (byte j lor (byte (j + 1) lsl 8) lor (byte (j + 2) lsl 16)
           lor (byte (j + 3) lsl 24))
    in
    c :=
      Array.unsafe_get t (0x700 + (x land 0xFF))
      lxor Array.unsafe_get t (0x600 + ((x lsr 8) land 0xFF))
      lxor Array.unsafe_get t (0x500 + ((x lsr 16) land 0xFF))
      lxor Array.unsafe_get t (0x400 + (x lsr 24))
      lxor Array.unsafe_get t (0x300 + byte (j + 4))
      lxor Array.unsafe_get t (0x200 + byte (j + 5))
      lxor Array.unsafe_get t (0x100 + byte (j + 6))
      lxor Array.unsafe_get t (byte (j + 7));
    i := j + 8
  done;
  for j = !i to len - 1 do
    c := Array.unsafe_get t ((!c lxor byte j) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

(* ------------------------------------------------------------------ *)
(* Fd-level primitives                                                  *)
(* ------------------------------------------------------------------ *)

let rec write_all fd buf off len =
  if len > 0 then
    match Unix.write fd buf off len with
    | n -> write_all fd buf (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd buf off len
    | exception
        Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _) ->
        raise Peer_gone

(* Pull exactly [len] bytes, optionally bounded by an absolute deadline
   (a peer wedged mid-frame must not wedge the supervisor).  The
   deadline is edge-inclusive: when it has passed, one final
   zero-timeout poll decides — data already waiting is read, silence is
   [Frame_timeout]. *)
let read_exact ?deadline fd buf off len =
  let rec go off len =
    if len > 0 then begin
      (match deadline with
      | None -> ()
      | Some d ->
          let rec wait () =
            let left = d -. Unix.gettimeofday () in
            if left <= 0.0 then begin
              match Unix.select [ fd ] [] [] 0.0 with
              | [], _, _ -> raise Frame_timeout
              | _ -> ()
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
            end
            else
              match Unix.select [ fd ] [] [] left with
              | [], _, _ -> wait ()
              | _ -> ()
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
          in
          wait ());
      match Unix.read fd buf off len with
      | 0 -> raise Peer_gone
      | n -> go (off + n) (len - n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off len
      | exception
          Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE | Unix.EBADF), _, _)
        ->
          raise Peer_gone
    end
  in
  go off len

let max_frame_bytes = 1 lsl 30
let header_bytes = 12

(* One contiguous buffer per frame: header then payload, written in a
   single [write_all] so a TCP frame is one stream burst. *)
let encode_frame (msg : 'a) : bytes =
  let payload = Marshal.to_bytes msg [] in
  let n = Bytes.length payload in
  let buf = Bytes.create (header_bytes + n) in
  Bytes.set_int64_be buf 0 (Int64.of_int n);
  Bytes.set_int32_be buf 8 (Int32.of_int (crc32 payload));
  Bytes.blit payload 0 buf header_bytes n;
  buf

let write_encoded fd (frame : bytes) : unit =
  write_all fd frame 0 (Bytes.length frame)

let write_frame fd (msg : 'a) : unit = write_encoded fd (encode_frame msg)

(* Returns the decoded message and the total frame size on the wire. *)
let read_frame_sized ?deadline fd : 'a * int =
  let hdr = Bytes.create header_bytes in
  read_exact ?deadline fd hdr 0 header_bytes;
  let n = Int64.to_int (Bytes.get_int64_be hdr 0) in
  if n <= 0 || n > max_frame_bytes then
    corrupt "frame length %d outside (0, %d]" n max_frame_bytes;
  let expect = Int32.to_int (Bytes.get_int32_be hdr 8) land 0xFFFFFFFF in
  let payload = Bytes.create n in
  read_exact ?deadline fd payload 0 n;
  let got = crc32 payload in
  if got <> expect then
    corrupt "frame CRC mismatch: header %08x, payload %08x over %d bytes"
      expect got n;
  match Marshal.from_bytes payload 0 with
  | v -> (v, header_bytes + n)
  | exception (Failure _ | Invalid_argument _) ->
      corrupt "frame payload unmarshallable despite a valid CRC (%d bytes)" n

let read_frame ?deadline fd : 'a = fst (read_frame_sized ?deadline fd)

(* ------------------------------------------------------------------ *)
(* Counted connections with deterministic link-fault injection          *)
(* ------------------------------------------------------------------ *)

type conn = {
  fd : Unix.file_descr;
  fate : (frame:int -> Fault.link_fate) option;
      (** drawn per {e outgoing} frame; [None] on healthy links and on
          the worker side *)
  mutable frames_out : int;
  mutable frames_in : int;
  mutable bytes_out : int;
  mutable bytes_in : int;
  mutable injected : int;  (** link faults delivered on this conn *)
  mutable partitioned_until : float;
      (** while in the future, the link blackholes: sends are dropped,
          received frames discarded *)
  mutable closed : bool;
}

let attach ?fate (fd : Unix.file_descr) : conn =
  { fd; fate; frames_out = 0; frames_in = 0; bytes_out = 0; bytes_in = 0;
    injected = 0; partitioned_until = neg_infinity; closed = false }

let conn_fd (c : conn) = c.fd
let bytes_out (c : conn) = c.bytes_out
let bytes_in (c : conn) = c.bytes_in
let frames_out (c : conn) = c.frames_out
let frames_in (c : conn) = c.frames_in
let injected_faults (c : conn) = c.injected
let partitioned (c : conn) = Unix.gettimeofday () < c.partitioned_until

let close (c : conn) : unit =
  if not c.closed then begin
    c.closed <- true;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end

let quiet_shutdown fd =
  try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()

(* Injection happens on the send path, after the frame (and its CRC) is
   encoded: a corrupted frame carries the CRC of the clean payload, so
   the receiver's check fails exactly as it would for a real flipped
   bit.  A severed link transmits half the frame and shuts the socket
   down — the peer sees a short read, we raise [Peer_gone].  A
   partition blackholes the link for its duration: this frame and every
   later send are dropped, and {!recv} discards inbound frames. *)
let send (c : conn) (msg : 'a) : unit =
  if c.closed then raise Peer_gone;
  let frame = c.frames_out in
  c.frames_out <- frame + 1;
  let buf = encode_frame msg in
  let len = Bytes.length buf in
  if partitioned c then c.injected <- c.injected + 1
  else
    let fate =
      match c.fate with None -> Fault.Link_ok | Some f -> f ~frame
    in
    match fate with
    | Fault.Link_ok ->
        write_all c.fd buf 0 len;
        c.bytes_out <- c.bytes_out + len
    | Fault.Link_delay { for_s } ->
        c.injected <- c.injected + 1;
        Unix.sleepf (Float.min 0.05 for_s);
        write_all c.fd buf 0 len;
        c.bytes_out <- c.bytes_out + len
    | Fault.Link_corrupt ->
        c.injected <- c.injected + 1;
        let i = header_bytes + ((len - header_bytes) / 2) in
        Bytes.set buf i (Char.chr (Char.code (Bytes.get buf i) lxor 0x5A));
        write_all c.fd buf 0 len;
        c.bytes_out <- c.bytes_out + len
    | Fault.Link_sever ->
        c.injected <- c.injected + 1;
        (try write_all c.fd buf 0 (Stdlib.max 1 (len / 2))
         with Peer_gone -> ());
        quiet_shutdown c.fd;
        raise Peer_gone
    | Fault.Link_partition { for_s } ->
        c.injected <- c.injected + 1;
        c.partitioned_until <- Unix.gettimeofday () +. for_s

let rec recv ?deadline (c : conn) : 'a =
  if c.closed then raise Peer_gone;
  let msg, size = read_frame_sized ?deadline c.fd in
  c.frames_in <- c.frames_in + 1;
  c.bytes_in <- c.bytes_in + size;
  if partitioned c then
    (* blackhole: the frame crossed the wire but never "arrived" *)
    recv ?deadline c
  else msg
