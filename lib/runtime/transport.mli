(** Shared wire codec of the real-process executors (DESIGN.md §16):
    length-prefixed, CRC32-checksummed [Marshal] frames over a file
    descriptor, used identically by {!Proc_cluster}'s socketpair pipes
    and {!Net_cluster}'s TCP links.

    Frame layout: an 8-byte big-endian payload length, a 4-byte
    big-endian CRC32 (IEEE 802.3) of the payload, then the marshalled
    payload.  Structural damage — insane length, CRC mismatch,
    unmarshallable payload — raises {!Corrupt_frame} with a structured
    [Diag] error (rule [T-FRAME]) rather than a bare [Marshal]
    exception. *)

exception Peer_gone
(** The peer is dead: EOF, EPIPE, or connection reset. *)

exception Frame_timeout
(** A frame did not complete within its deadline: the peer is hung.
    The deadline is edge-inclusive — data that arrived {e exactly} at
    the deadline is still read (one final zero-timeout poll decides). *)

exception Corrupt_frame of Dmll_analysis.Diag.t
(** The frame is structurally bad (rule [T-FRAME]). *)

val max_frame_bytes : int
val header_bytes : int

val crc32 : bytes -> int
(** IEEE 802.3 CRC32 of a buffer, in [0, 2{^32}) (slicing-by-8). *)

(** {1 Fd-level codec} — the pipe path ({!Proc_cluster}). *)

val write_frame : Unix.file_descr -> 'a -> unit
(** Marshal and frame one message.  Raises {!Peer_gone} when the peer
    is dead. *)

val encode_frame : 'a -> bytes
(** One whole frame — header then marshalled payload — as written on
    the wire by {!write_frame}. *)

val write_encoded : Unix.file_descr -> bytes -> unit
(** Write a frame built by {!encode_frame}, so one encoding can go to
    many peers.  Raises {!Peer_gone} when the peer is dead. *)

val read_frame : ?deadline:float -> Unix.file_descr -> 'a
(** Read one frame, optionally bounded by an absolute deadline.
    Raises {!Peer_gone}, {!Frame_timeout}, or {!Corrupt_frame}. *)

val read_frame_sized : ?deadline:float -> Unix.file_descr -> 'a * int
(** {!read_frame}, also returning the frame's size on the wire. *)

(** {1 Counted connections} — the TCP path ({!Net_cluster}).

    A {!conn} counts frames and bytes in both directions (feeding the
    per-link metrics the supervisors publish) and can host a
    deterministic link-fault injector on its send path: every outgoing
    frame draws a {!Fault.link_fate} and the wrapper delivers it for
    real — delaying, corrupting, severing mid-frame, or blackholing
    ("partitioning") frames on the live socket. *)

type conn

val attach : ?fate:(frame:int -> Fault.link_fate) -> Unix.file_descr -> conn
(** Wrap a connected socket.  [fate] (master side only) is consulted
    once per outgoing frame, keyed by the frame number. *)

val conn_fd : conn -> Unix.file_descr

val send : conn -> 'a -> unit
(** Frame and transmit one message, applying the injected link fate.
    Raises {!Peer_gone} on a dead or injected-severed link.  Frames
    sent while the link is partitioned are silently dropped. *)

val recv : ?deadline:float -> conn -> 'a
(** Read one message.  Frames arriving while the link is partitioned
    are read (and counted) but discarded, as a blackholed link would.
    Raises {!Peer_gone}, {!Frame_timeout}, or {!Corrupt_frame}. *)

val close : conn -> unit
(** Close the underlying fd; idempotent. *)

val bytes_out : conn -> int
val bytes_in : conn -> int
val frames_out : conn -> int
val frames_in : conn -> int

val injected_faults : conn -> int
(** Link faults delivered on this connection. *)

val partitioned : conn -> bool
(** The link is currently inside an injected partition window. *)
